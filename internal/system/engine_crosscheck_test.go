package system

import (
	"encoding/json"
	"os"
	"sync"
	"testing"

	"tetriswrite/internal/schemes"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/workload"
)

// engineQueuePath holds one digest row per cell of the engine-queue
// cross-check. The committed rows were recorded when the engine still
// carried two queue implementations, a binary heap and a timing wheel,
// and both produced every row bit for bit. An intended change to model
// behaviour regenerates them, and engineModePath's rows, from the
// current code with
//
//	go test ./internal/system -run 'TestGoldenDigests|TestEngineQueueCrossCheck|TestEngineModeCrossCheck' -update
const engineQueuePath = "testdata/engine_queue_digests.json"

// engineModePath holds one digest row per cell of the engine-mode
// cross-check. The committed rows were recorded when the simulator still
// carried a second, per-bank parallel planning engine next to the serial
// one, and both produced every row bit for bit.
const engineModePath = "testdata/engine_mode_digests.json"

// engineModeNames is the composition set the engine-mode sweep covers:
// every base scheme plus one instance of each decorator and the adaptive
// meta-scheme.
var engineModeNames = []string{
	"conventional", "dcw", "fnw", "twostage", "threestage", "tetris",
	"dcw+flipmin", "dcw+remap", "tetris+remap", "dcw+mlc", "adaptive",
}

// sweepFactory resolves a base scheme under the package's sweep names
// and anything else through the registry.
func sweepFactory(t *testing.T, name string) schemes.Factory {
	t.Helper()
	for _, s := range goldenSchemes {
		if s.name == name {
			return s.factory
		}
	}
	return composedFactory(t, name)
}

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
	names := make([]string, len(goldenSchemes))
	for i, s := range goldenSchemes {
		names[i] = s.name
	}
	checkSweepDigests(t, engineQueuePath, names)
}

// TestEngineModeCrossCheck extends the same gate to the scheme
// compositions: over the 8-workload sweep and every name in
// engineModeNames, at 60k instructions per core and seed 7, every run
// must reproduce its digest in testdata/engine_mode_digests.json — the
// Result the serial and the per-bank parallel engine agreed on before
// the parallel engine was removed. A composition whose decorator or
// adaptive epoch logic starts to depend on anything but the simulated
// event order moves its digest.
func TestEngineModeCrossCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload x scheme composition sweep")
	}
	checkSweepDigests(t, engineModePath, engineModeNames)
}

// checkSweepDigests runs every workload profile under each named scheme
// at 60k instructions per core and seed 7, one subtest per cell named
// workload/scheme, and compares each cell's digest with its row in path.
// With -update it rewrites path from the current code instead.
func checkSweepDigests(t *testing.T, path string, names []string) {
	want := map[string]goldenRow{}
	if !*updateGolden {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		if n := len(workload.Profiles()) * len(names); len(want) != n {
			t.Errorf("%s has %d rows, want one per cell (%d)", path, len(want), n)
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
		if err := os.WriteFile(path, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	for _, prof := range workload.Profiles() {
		for _, scheme := range names {
			name := prof.Name + "/" + scheme
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				cfg := Config{InstrBudget: 60_000, Seed: 7}
				res, err := Run(prof, sweepFactory(t, scheme), cfg)
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
