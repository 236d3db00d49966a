package system

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"tetriswrite/internal/crash"
	"tetriswrite/internal/fault"
	"tetriswrite/internal/guard"
	"tetriswrite/internal/memctrl"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/sim"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/units"
	"tetriswrite/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_digests.json from the current code")

const goldenPath = "testdata/golden_digests.json"

// goldenRow is one cell of the behaviour lock: a digest over everything
// the cell measured, plus a few readable scalars so a failing row says
// what moved.
type goldenRow struct {
	IPC        float64 `json:"ipc"`
	WriteUnits float64 `json:"write_units"`
	Reads      int64   `json:"reads"`
	Writes     int64   `json:"writes"`
	Digest     string  `json:"digest"`
}

// ctrlCounters is memctrl.Stats with the latency histograms reduced to
// their exact integer moments, so it encodes canonically.
type ctrlCounters struct {
	Reads, Writes, ForwardedReads, Coalesced        int64
	ReadCount, ReadMinPs, ReadMaxPs, ReadMeanPs     int64
	WriteCount, WriteMinPs, WriteMaxPs, WriteMeanPs int64
	WriteUnits                                      float64
	BitSets, BitResets, Drains, DrainExits          int64
	StallRejects, Pauses, Cancellations             int64
	Presets, PresetDropped, SubarrayOverlaps        int64
	Verifies, Retries, RetrySets, RetryResets       int64
	HardErrors                                      int64
	VerifyOverheadPs                                int64
	ReadP99Ps, WriteP99Ps                           int64
}

func countersOf(st memctrl.Stats) ctrlCounters {
	return ctrlCounters{
		Reads: st.Reads, Writes: st.Writes, ForwardedReads: st.ForwardedReads, Coalesced: st.Coalesced,
		ReadCount: st.ReadLatency.Count(), ReadMinPs: int64(st.ReadLatency.Min()),
		ReadMaxPs: int64(st.ReadLatency.Max()), ReadMeanPs: int64(st.ReadLatency.Mean()),
		WriteCount: st.WriteLatency.Count(), WriteMinPs: int64(st.WriteLatency.Min()),
		WriteMaxPs: int64(st.WriteLatency.Max()), WriteMeanPs: int64(st.WriteLatency.Mean()),
		WriteUnits: st.WriteUnits,
		BitSets:    st.BitSets, BitResets: st.BitResets, Drains: st.Drains, DrainExits: st.DrainExits,
		StallRejects: st.StallRejects, Pauses: st.Pauses, Cancellations: st.Cancellations,
		Presets: st.Presets, PresetDropped: st.PresetDropped, SubarrayOverlaps: st.SubarrayOverlaps,
		Verifies: st.Verifies, Retries: st.Retries, RetrySets: st.RetrySets, RetryResets: st.RetryResets,
		HardErrors: st.HardErrors, VerifyOverheadPs: int64(st.VerifyOverhead),
		ReadP99Ps: int64(st.ReadLatency.Percentile(99)), WriteP99Ps: int64(st.WriteLatency.Percentile(99)),
	}
}

// digester accumulates canonical JSON encodings into one SHA-256.
type digester struct {
	t *testing.T
	h [32]byte
	b []byte
}

func (d *digester) add(v any) {
	d.t.Helper()
	enc, err := json.Marshal(v)
	if err != nil {
		d.t.Fatal(err)
	}
	d.b = append(append(d.b, enc...), '\n')
}

func (d *digester) sum() string {
	d.h = sha256.Sum256(d.b)
	return hex.EncodeToString(d.h[:])
}

// resultRow digests a finished run: the Summarize projection, every
// controller counter, and the per-core and per-cache-level stats.
func resultRow(t *testing.T, r Result, seed int64, extra ...any) goldenRow {
	t.Helper()
	d := &digester{t: t}
	d.add(Summarize(r, seed))
	d.add(countersOf(r.Ctrl))
	d.add(r.Cores)
	d.add(r.Caches)
	d.add(r.Fault)
	d.add(r.Spare)
	d.add(r.Remap)
	for _, x := range extra {
		d.add(x)
	}
	return goldenRow{IPC: r.IPC, WriteUnits: r.WriteUnits, Reads: r.Ctrl.Reads, Writes: r.Ctrl.Writes, Digest: d.sum()}
}

// goldenSchemes are the paper's compared schemes plus the conventional
// baseline, under the names the rest of the package's sweeps use.
var goldenSchemes = []struct {
	name    string
	factory schemes.Factory
}{
	{"conventional", schemes.NewConventional},
	{"dcw", schemes.NewDCW},
	{"fnw", schemes.NewFlipNWrite},
	{"twostage", schemes.NewTwoStage},
	{"threestage", schemes.NewThreeStage},
	{"tetris", tetris.New},
}

// goldenCompositions are the registry compositions the lock covers on
// vips and canneal: every decorator over several bases, a two-deep
// stack, and the adaptive meta-scheme bare and decorated.
var goldenCompositions = []string{
	"dcw+flipmin", "dcw+remap", "dcw+mlc", "dcw+flipmin+remap",
	"fnw+remap", "twostage+mlc", "threestage+remap",
	"tetris+remap", "tetris+mlc", "adaptive", "adaptive+remap",
}

func goldenConfig() Config { return Config{InstrBudget: 50_000, Seed: 7} }

type goldenCell struct {
	name string
	run  func(t *testing.T) goldenRow
}

func runCell(prof workload.Profile, f schemes.Factory, cfg Config) func(t *testing.T) goldenRow {
	return func(t *testing.T) goldenRow {
		res, err := Run(prof, f, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return resultRow(t, res, cfg.Seed)
	}
}

func goldenCells(t *testing.T) []goldenCell {
	var cells []goldenCell
	for _, prof := range workload.Profiles() {
		for _, s := range goldenSchemes {
			cells = append(cells, goldenCell{prof.Name + "/" + s.name, runCell(prof, s.factory, goldenConfig())})
		}
	}
	for _, wl := range []string{"vips", "canneal"} {
		prof, err := workload.ProfileByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range goldenCompositions {
			cells = append(cells, goldenCell{wl + "/" + name, runCell(prof, composedFactory(t, name), goldenConfig())})
		}
	}

	canneal, _ := workload.ProfileByName("canneal")
	vips, _ := workload.ProfileByName("vips")
	caches := goldenConfig()
	caches.UseCaches = true
	cells = append(cells, goldenCell{"corners/caches", runCell(canneal, tetris.New, caches)})
	preset := caches
	preset.Ctrl.IdlePreset = true
	cells = append(cells, goldenCell{"corners/caches+preset", runCell(vips, tetris.New, preset)})

	faults := faultConfig()
	faults.WearLevelPsi = 50
	cells = append(cells, goldenCell{"corners/faults+wearlevel", func(t *testing.T) goldenRow {
		return runCell(faultProfile(t), tetris.New, faults)(t)
	}})
	wear := goldenConfig()
	wear.WearLevelPsi = 20
	wear.TrackWear = true
	cells = append(cells, goldenCell{"corners/wearlevel", func(t *testing.T) goldenRow {
		res, err := Run(vips, tetris.New, wear)
		if err != nil {
			t.Fatal(err)
		}
		return resultRow(t, res, wear.Seed, res.Wear)
	}})

	pausing := goldenConfig()
	pausing.Ctrl.WritePausing = true
	cells = append(cells, goldenCell{"corners/pausing", runCell(vips, tetris.New, pausing)})
	cancel := goldenConfig()
	cancel.Ctrl.WriteCancellation = true
	cells = append(cells, goldenCell{"corners/cancellation", runCell(vips, schemes.NewDCW, cancel)})
	sub := goldenConfig()
	sub.Ctrl.Subarrays = 4
	cells = append(cells, goldenCell{"corners/subarrays", runCell(canneal, tetris.New, sub)})

	line := goldenConfig()
	line.Params = pcm.DefaultParams()
	line.Params.LineBytes = 128
	cells = append(cells, goldenCell{"corners/line128/tetris", runCell(vips, tetris.New, line)})
	cells = append(cells, goldenCell{"corners/line128/dcw", runCell(vips, schemes.NewDCW, line)})

	guarded := goldenConfig()
	guarded.Guard = guard.Config{Enabled: true, DeepChecks: true}
	cells = append(cells, goldenCell{"corners/guard", func(t *testing.T) goldenRow {
		res, err := Run(vips, tetris.New, guarded)
		if err != nil {
			t.Fatal(err)
		}
		return resultRow(t, res, guarded.Seed, res.Guard)
	}})

	cells = append(cells, goldenCell{"corners/trace", func(t *testing.T) goldenRow {
		ferret, _ := workload.ProfileByName("ferret")
		recs := trace.Generate(ferret, 2, 3, pcm.DefaultParams(), 4000)
		cfg := Config{InstrBudget: 100_000}
		res, err := RunTrace("ferret", recs, 2, tetris.New, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return resultRow(t, res, cfg.Seed)
	}})
	cells = append(cells, goldenCell{"corners/trace+caches", func(t *testing.T) goldenRow {
		recs := trace.Generate(canneal, 2, 5, pcm.DefaultParams(), 4000)
		cfg := Config{InstrBudget: 100_000, UseCaches: true}
		res, err := RunTrace("canneal", recs, 2, schemes.NewThreeStage, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return resultRow(t, res, cfg.Seed)
	}})

	cells = append(cells, goldenCell{"corners/trace+faults", func(t *testing.T) goldenRow {
		recs := trace.Generate(vips, 2, 3, pcm.DefaultParams(), 4000)
		cfg := Config{InstrBudget: 100_000, Fault: fault.Config{TransientRate: 0.01, Seed: 3}}
		res, err := RunTrace("vips", recs, 2, tetris.New, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return resultRow(t, res, cfg.Seed)
	}})
	cells = append(cells, goldenCell{"corners/trace+epoch", func(t *testing.T) goldenRow {
		recs := trace.Generate(vips, 2, 3, pcm.DefaultParams(), 4000)
		cfg := Config{InstrBudget: 100_000, Epoch: 10 * units.Microsecond}
		res, err := RunTrace("vips", recs, 2, schemes.NewDCW, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var epochs bytes.Buffer
		if err := res.Telemetry.WriteJSONLines(&epochs); err != nil {
			t.Fatal(err)
		}
		return resultRow(t, res, cfg.Seed, res.Telemetry.SeriesNames(), epochs.String())
	}})
	cells = append(cells, goldenCell{"corners/trace+guard", func(t *testing.T) goldenRow {
		recs := trace.Generate(vips, 2, 3, pcm.DefaultParams(), 4000)
		cfg := Config{InstrBudget: 100_000, Guard: guard.Config{Enabled: true, DeepChecks: true}}
		res, err := RunTrace("vips", recs, 2, tetris.New, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return resultRow(t, res, cfg.Seed, res.Guard)
	}})

	cells = append(cells, goldenCell{"corners/crash-recover-resume", func(t *testing.T) goldenRow {
		return crashRow(t, vips)
	}})
	return cells
}

// crashRow cuts a tetris run at a pulse boundary, recovers the image,
// then resumes on a fresh engine over the recovered device and scheme
// instances, re-issuing every in-flight intent under a deep-checking
// guard. The digest covers the cut run, the cut point, the surviving
// intents, the recovery report and the resumed image.
func crashRow(t *testing.T, prof workload.Profile) goldenRow {
	t.Helper()
	cfg := goldenConfig()
	cfg.Crash = crash.Config{AtPulse: 4_000}
	res, err := Run(prof, tetris.New, cfg)
	var ce *crash.CutError
	if !errors.As(err, &ce) {
		t.Fatalf("run did not stop at a power cut: %v", err)
	}
	img := ce.Image
	rep, err := Recover(img)
	if err != nil {
		t.Fatal(err)
	}

	eng := &sim.Engine{}
	ctrl := memctrl.NewWithSchemes(eng, img.Dev, img.Schemes, memctrl.Config{OpportunisticWrites: true, DisableCoalescing: true})
	g := guard.New(img.Params, guard.Config{Enabled: true, DeepChecks: true})
	g.AdoptShadow(img.Shadow)
	ctrl.SetGuard(g)
	acked := 0
	eng.At(0, func() {
		for _, in := range img.Intents {
			if !ctrl.SubmitWrite(in.Addr, in.Want, func(units.Time) { acked++ }) {
				t.Fatal("resume queue overflow")
			}
		}
		ctrl.WhenIdle(func() {})
	})
	eng.Run()
	if err := g.Err(); err != nil {
		t.Fatal(err)
	}
	if acked != len(img.Intents) {
		t.Fatalf("resume acknowledged %d of %d re-issued intents", acked, len(img.Intents))
	}

	var addrs []pcm.LineAddr
	for a := range img.Acked {
		addrs = append(addrs, a)
	}
	for _, in := range img.Intents {
		addrs = append(addrs, in.Addr)
	}
	slices.Sort(addrs)
	addrs = slices.Compact(addrs)
	image := make([]byte, 0, len(addrs)*img.Params.LineBytes)
	buf := make([]byte, img.Params.LineBytes)
	for _, a := range addrs {
		img.Dev.PeekLine(a, buf)
		image = append(image, buf...)
	}
	imageSum := sha256.Sum256(image)
	cut := struct {
		CutAt                         units.Time
		PulsesIssued, WritesCompleted int64
		Intents                       int
	}{img.CutAt, img.PulsesIssued, img.WritesCompleted, len(img.Intents)}
	return resultRow(t, res, cfg.Seed, cut, img.Intents, rep, eng.Now(), countersOf(ctrl.Stats()), hex.EncodeToString(imageSum[:]))
}

// TestGoldenDigests is the behaviour lock: every cell of a fixed matrix
// — the 8 workloads under the paper's schemes, the registry
// compositions on vips and canneal, and the caches, PreSET, fault,
// wear-levelling, pausing, subarray, 128 B line, guard, trace-replay
// (plain, cached, faulty, sampled and guarded) and crash-recover-resume
// corners — must reproduce its committed digest. An intended change to
// model behaviour shows up as a diff of testdata/golden_digests.json,
// regenerated with
//
//	go test ./internal/system -run TestGoldenDigests -update
func TestGoldenDigests(t *testing.T) {
	cells := goldenCells(t)
	want := map[string]goldenRow{}
	if !*updateGolden {
		raw, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
		names := map[string]bool{}
		for _, c := range cells {
			names[c.name] = true
		}
		for name := range want {
			if !names[name] {
				t.Errorf("%s: golden row has no cell (regenerate with -update)", name)
			}
		}
	}
	got := make([]goldenRow, len(cells))
	// Parallel subtests finish before the parent's cleanups run, so the
	// rewrite sees every row.
	t.Cleanup(func() {
		if !*updateGolden || t.Failed() {
			return
		}
		rows := make(map[string]goldenRow, len(cells))
		for i, c := range cells {
			rows[c.name] = got[i]
		}
		enc, err := json.MarshalIndent(rows, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(enc, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	})
	for i, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			g := c.run(t)
			got[i] = g
			if *updateGolden {
				return
			}
			w, ok := want[c.name]
			switch {
			case !ok:
				t.Errorf("no golden row (regenerate with -update)")
			case w != g:
				t.Errorf("cell moved:\n  golden: ipc %v, write units %v, reads %d, writes %d, digest %s\n  now:    ipc %v, write units %v, reads %d, writes %d, digest %s",
					w.IPC, w.WriteUnits, w.Reads, w.Writes, w.Digest, g.IPC, g.WriteUnits, g.Reads, g.Writes, g.Digest)
			}
		})
	}
}
