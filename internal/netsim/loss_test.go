package netsim

import (
	"math"
	"testing"
)

func TestChannelLossRate(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	ch := NewChannel(s, 1_000_000_000, 0, k, 0)
	ch.SetLossModel(NewGilbertElliott(0, 0, 0.25, 0.25, 99))

	const frames = 4000
	sent := 0
	var pump func()
	pump = func() {
		if sent >= frames {
			return
		}
		sent++
		ch.Send(mkPacket(100))
		ch.WakeWhenIdle()
	}
	ch.SetOnIdle(pump)
	s.At(0, pump)
	s.Run()

	got := float64(len(k.pkts)) / frames
	if math.Abs(got-0.75) > 0.03 {
		t.Fatalf("delivery rate = %.3f, want ~0.75", got)
	}
	if ch.PacketsLost+uint64(len(k.pkts)) != frames {
		t.Fatalf("loss accounting: lost=%d delivered=%d", ch.PacketsLost, len(k.pkts))
	}
}

func TestChannelLossZeroByDefault(t *testing.T) {
	s := New(1)
	k := &sink{sim: s}
	ch := NewChannel(s, 1_000_000_000, 0, k, 0)
	for i := 0; i < 100; i++ {
		at := Time(i) * Millisecond
		s.At(at, func() { ch.Send(mkPacket(10)) })
	}
	s.Run()
	if len(k.pkts) != 100 {
		t.Fatalf("lossless channel dropped: %d/100", len(k.pkts))
	}
}

func TestChannelLossValidation(t *testing.T) {
	s := New(1)
	ch := NewChannel(s, 1000, 0, &sink{sim: s}, 0)
	// The closed interval [0, 1] is accepted: p == 1 is the blackout
	// case fault injection uses.
	ch.SetLossModel(NewGilbertElliott(0, 0, 0, 0, 1))
	ch.SetLossModel(NewGilbertElliott(1, 1, 1, 1, 1))
	for _, p := range []float64{-0.1, 1.01, 2} {
		for i := range 4 {
			probs := [4]float64{}
			probs[i] = p
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("NewGilbertElliott%v did not panic", probs)
					}
				}()
				ch.SetLossModel(NewGilbertElliott(probs[0], probs[1], probs[2], probs[3], 1))
			}()
		}
	}
}

func TestChannelLossDeterminism(t *testing.T) {
	run := func() uint64 {
		s := New(1)
		k := &sink{sim: s}
		ch := NewChannel(s, 1_000_000_000, 0, k, 0)
		ch.SetLossModel(NewGilbertElliott(0, 0, 0.5, 0.5, 7))
		for i := 0; i < 200; i++ {
			at := Time(i) * Millisecond
			s.At(at, func() { ch.Send(mkPacket(10)) })
		}
		s.Run()
		return ch.PacketsLost
	}
	if run() != run() {
		t.Fatal("loss pattern not deterministic")
	}
}
