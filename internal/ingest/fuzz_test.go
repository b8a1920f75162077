package ingest

import (
	"testing"

	"progressest/internal/exec"
)

// FuzzDecodeBatch fuzzes the observation-batch wire decoder against the
// reflection decoder it replaced, and the runner behind it: whatever
// bytes arrive, the two decoders agree (or the grammar decoder refuses
// for a documented reason — checkAgainstReference), and an accepted batch
// is one the session state machine processes without panics, with the
// monotone-counter invariants holding on every accepted prefix.
func FuzzDecodeBatch(f *testing.F) {
	f.Add([]byte(`{"events":[{"snapshot":{"time":1,"deltas":[{"node":0,"k":5,"r":40}]}}]}`))
	f.Add([]byte(`{"events":[{"start":{"pipeline":0,"time":0.5}},{"snapshot":{"time":1,"deltas":[{"node":0,"k":5}]}}],"done":true,"ends":[{"pipeline":0,"time":1}]}`))
	f.Add([]byte(`{"done":true}`))
	f.Add([]byte(`{"events":[{"snapshot":{"time":-1,"deltas":[{"node":0,"k":-3}]}}]}`))
	f.Add([]byte(`{"events":[{}]}`))
	f.Add([]byte(`[]`))
	// Two snapshots whose counters sum past int64.
	f.Add([]byte(`{"events":[{"snapshot":{"time":1,"deltas":[{"node":0,"k":9223372036854775807}]}},{"snapshot":{"time":2,"deltas":[{"node":0,"k":9223372036854775807}]}}]}`))
	// What the grammar refuses and the reflection decoder let through.
	f.Add([]byte(`{"EVENTS":[],"Done":true}`))
	f.Add([]byte(`{"d\u006fne":true}`))
	f.Add([]byte(`{"done":false,"done":true}`))
	f.Add([]byte(`{"events":[{"snapshot":{"time":1},"snapshot":{"deltas":[]}}]}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"events":[{"start":null,"snapshot":{"time":1,"deltas":null}}]}`))
	// What both accept or both refuse.
	f.Add([]byte(" {\t\"ends\" : [ ] ,\r\n\"events\":[ { \"snapshot\" : {\"deltas\":[ {\"w\":0 , \"node\" : 1} ],\"time\":-0.0e+0} } ] } \n"))
	f.Add([]byte(`{"events":[{"snapshot":{"time":1e999}}]}`))
	f.Add([]byte(`{"events":[{"snapshot":{"time":1,"deltas":[{"node":1.0,"k":1e2,"r":99999999999999999999,"w":01}]}}]}`))
	f.Add([]byte(`{"events":[{"start":{"pipeline":-9223372036854775808,"time":1E-400}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := checkAgainstReference(t, new(BatchDecoder), data)
		if err != nil {
			return
		}
		for _, ev := range b.Events {
			if (ev.Start == nil) == (ev.Snapshot == nil) {
				t.Fatal("decoder accepted an event without exactly one of start/snapshot")
			}
		}
		model, err := Build(testSpec())
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(model, exec.BaseObserver{}, 0, 64)
		if err := r.Apply(b); err != nil {
			return
		}
		// Every accepted snapshot kept the counters monotone; the
		// synthesized trace must finalize cleanly.
		tr, err := r.Finish(nil)
		if err != nil {
			t.Fatalf("Finish after clean Apply: %v", err)
		}
		for i, k := range tr.N {
			if k < 0 || tr.FinalR[i] < 0 || tr.FinalW[i] < 0 {
				t.Fatalf("node %d: negative final counter after accepted stream", i)
			}
		}
		for i := 1; i < len(tr.Snapshots); i++ {
			if tr.Snapshots[i].Time <= tr.Snapshots[i-1].Time {
				t.Fatalf("retained snapshots out of order at %d", i)
			}
		}
	})
}
