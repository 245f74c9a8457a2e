package chaos

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
	"repro/internal/rcp"
)

// TestSimsRunSideBySide is the proof behind plain-word metrics and the
// single-writer tracer: a Sim and everything wired to it — registry,
// tracer, pool, controllers — is a closed world, so the three soaks at
// seeds 1, 7 and 42 and a watched Figure 2 run, all on concurrent
// goroutines, each produce exactly what they produce run one by one.
// Under make race a registry, tracer or other word shared between two
// of them is a reported race.
func TestSimsRunSideBySide(t *testing.T) {
	type job struct {
		name string
		run  func() string
	}
	var jobs []job
	for _, seed := range []int64{1, 7, 42} {
		jobs = append(jobs,
			job{fmt.Sprintf("chaos/seed=%d", seed), func() string { return fmt.Sprintf("%+v", Run(Default(seed))) }},
			job{fmt.Sprintf("hostile/seed=%d", seed), func() string { return fmt.Sprintf("%+v", RunHostile(DefaultHostile(seed))) }},
			job{fmt.Sprintf("reflex/seed=%d", seed), func() string { return fmt.Sprintf("%+v", RunReflexSoak(DefaultReflexSoak(seed))) }},
		)
	}
	jobs = append(jobs, job{"fig2", func() string {
		cfg := rcp.DefaultFig2Config(rcp.VariantStar)
		cfg.Metrics = obs.NewRegistry()
		res := rcp.RunFigure2(cfg)
		var b strings.Builder
		for _, s := range res.Samples {
			fmt.Fprintf(&b, "%x %x", math.Float64bits(s.T), math.Float64bits(s.ROverC))
			for _, f := range s.Flows {
				fmt.Fprintf(&b, " %x", math.Float64bits(f))
			}
			b.WriteByte('\n')
		}
		if err := cfg.Metrics.Snapshot(int64(cfg.Duration)).WriteJSONL(&b); err != nil {
			return err.Error()
		}
		return b.String()
	}})

	serial := make([]string, len(jobs))
	for i, j := range jobs {
		serial[i] = j.run()
	}
	side := make([]string, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			side[i] = j.run()
		}()
	}
	wg.Wait()
	for i, j := range jobs {
		if side[i] != serial[i] {
			t.Errorf("%s: the run beside the others differs from its serial run:\nside   %.300s\nserial %.300s", j.name, side[i], serial[i])
		}
	}
}
