package system

import (
	"encoding/json"
	"os"
	"sync"
	"testing"

	"tetriswrite/internal/tetris"
	"tetriswrite/internal/workload"
)

// engineQueuePath holds one digest row per cell of the engine-queue
// cross-check. The committed rows were recorded when the engine still
// carried two queue implementations, a binary heap and a timing wheel,
// and both produced every row bit for bit. An intended change to model
// behaviour regenerates them from the current code with
//
//	go test ./internal/system -run 'TestGoldenDigests|TestEngineQueueCrossCheck' -update
const engineQueuePath = "testdata/engine_queue_digests.json"

// TestEngineQueueCrossCheck is the full-system gate for the engine's
// event queue: over the 8-workload sweep and every write scheme, at 60k
// instructions per core and seed 7, every run must reproduce its digest
// in testdata/engine_queue_digests.json — the Result the heap and the
// wheel agreed on. Any divergence, a reordered event or a dropped
// tiebreak, moves the digest over the complete statistics (Summarize,
// every controller counter, per-core, cache, fault and remap stats).
func TestEngineQueueCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x scheme sweep")
	}
	want := map[string]goldenRow{}
	if !*updateGolden {
		raw, err := os.ReadFile(engineQueuePath)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if n := len(workload.Profiles()) * len(goldenSchemes); len(want) != n {
			t.Errorf("%s has %d rows, want one per cell (%d)", engineQueuePath, len(want), n)
		}
	}
	var mu sync.Mutex
	got := map[string]goldenRow{}
	t.Cleanup(func() {
		if !*updateGolden || t.Failed() {
			return
		}
		enc, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(engineQueuePath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	for _, prof := range workload.Profiles() {
		for _, s := range goldenSchemes {
			name := prof.Name + "/" + s.name
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := Config{InstrBudget: 60_000, Seed: 7}
				res, err := Run(prof, s.factory, cfg)
				if err != nil {
					t.Fatal(err)
				}
				g := resultRow(t, res, cfg.Seed)
				mu.Lock()
				got[name] = g
				mu.Unlock()
				if *updateGolden {
					return
				}
				if w, ok := want[name]; !ok {
					t.Errorf("no row (regenerate with -update)")
				} else if w != g {
					t.Errorf("cell moved:\n  recorded: ipc %v, write units %v, reads %d, writes %d, digest %s\n  now:      ipc %v, write units %v, reads %d, writes %d, digest %s",
						w.IPC, w.WriteUnits, w.Reads, w.Writes, w.Digest, g.IPC, g.WriteUnits, g.Reads, g.Writes, g.Digest)
				}
			})
		}
	}
}

// TestEngineQueueCrossCheckFaults repeats the cross-check on the one
// configuration whose event pattern differs most from the plain sweep:
// verify-retry loops, hard-error sparing and Start-Gap wear leveling all
// enabled at once. These layers schedule same-cycle follow-up events and
// far-future maintenance work, exactly the orderings the sequence
// tiebreak must preserve. The run must reproduce the behaviour lock's
// corners/faults+wearlevel row, which the heap and the wheel also
// produced alike.
func TestEngineQueueCrossCheckFaults(t *testing.T) {
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var rows map[string]goldenRow
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	w, ok := rows["corners/faults+wearlevel"]
	if !ok {
		t.Fatalf("%s has no corners/faults+wearlevel row", goldenPath)
	}
	cfg := faultConfig()
	cfg.WearLevelPsi = 50
	res, err := Run(faultProfile(t), tetris.New, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if g := resultRow(t, res, cfg.Seed); g != w {
		t.Errorf("faults run moved:\n  golden: %+v\n  now:    %+v", w, g)
	}
}
