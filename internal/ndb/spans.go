package ndb

import "repro/internal/obs"

// JourneyFromSpans reconstructs a packet's per-hop journey from its
// lifecycle span events (as returned by obs.Tracer.Journey): the switch
// id and input port come from the parser span, the matched rule and its
// version from the TCAM lookup span.  It yields the same HopRecord
// sequence the in-band TPP trace carries, so the two collection
// mechanisms (§2.3 TPPs vs. out-of-band telemetry) can cross-validate
// each other.
//
// Link-level events (serialization, loss, delivery) are skipped; a hop
// that never reached its lookup stage (stripped, dropped at the parser)
// still appears, with a zero entry id and version.
//
//api:oracle the out-of-band journey the tests hold the in-band hop records to
func JourneyFromSpans(events []obs.SpanEvent) []HopRecord {
	var out []HopRecord
	cur := -1
	for _, ev := range events {
		switch ev.Stage {
		case obs.StageParser:
			out = append(out, HopRecord{
				SwitchID: ev.Node,
				InPort:   uint32(ev.A),
			})
			cur = len(out) - 1
		case obs.StageLookupTCAM:
			if cur >= 0 && out[cur].SwitchID == ev.Node {
				out[cur].EntryID = uint32(ev.A)
				out[cur].EntryVersion = uint32(ev.B)
			}
		}
	}
	return out
}
