package system

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tetriswrite/internal/fault"
	"tetriswrite/internal/guard"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/trace"
	"tetriswrite/internal/workload"
)

// Lines of 512 B and more leave a 4 GiB device with fewer lines than the
// workload's 64 B-sized allocation frontiers span. These configurations
// used to pass validation and then panic mid-run on an out-of-range line
// address; the frontiers now shrink to fit the device, so each runs to
// completion. DCW keeps no flip tags, so it runs at every line size
// (flip-tag schemes are rejected above 128 B, see
// TestRunRejectsFlipTagsOnWideLines) and the deep checks hold.
func TestRunLargeLinesFitDevice(t *testing.T) {
	cases := []struct {
		workload string
		line     int
	}{
		{"vips", 512}, {"vips", 1024}, {"vips", 2048}, {"vips", 4096},
		{"canneal", 4096},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%dB", c.workload, c.line), func(t *testing.T) {
			prof, _ := workload.ProfileByName(c.workload)
			cfg := smallConfig()
			cfg.Params.LineBytes = c.line
			cfg.InstrBudget = 20_000
			cfg.Guard = guard.Config{Enabled: true, DeepChecks: true}
			res, err := Run(prof, schemes.NewDCW, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Ctrl.Writes == 0 {
				t.Fatal("no writes reached the device")
			}
			for i, cs := range res.Cores {
				if !cs.Finished || cs.Retired != cfg.InstrBudget {
					t.Errorf("core %d did not retire its budget: %+v", i, cs)
				}
			}
		})
	}
}

// A device too small for even the workload's static regions is rejected
// before the run starts, with a typed error naming the shortfall. The
// fault model's spare region counts against the device.
func TestRunRejectsDeviceTooSmall(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	need := workload.NewProgram(prof, 4, 1, smallConfig().Params).AddressFootprint() + 4

	cfg := smallConfig()
	cfg.Params.CapacityBytes = int64(cfg.Params.LineBytes) * (need - 1)
	_, err := Run(prof, tetris.New, cfg)
	var ce *CapacityError
	if !errors.As(err, &ce) {
		t.Fatalf("undersized device not rejected with a CapacityError: %v", err)
	}
	if ce.Need != need || ce.Have != need-1 {
		t.Errorf("CapacityError reports need %d have %d, want %d and %d", ce.Need, ce.Have, need, need-1)
	}

	cfg.Params.CapacityBytes = int64(cfg.Params.LineBytes) * need
	cfg.InstrBudget = 20_000
	if _, err := Run(prof, tetris.New, cfg); err != nil {
		t.Fatalf("device with exactly the needed lines rejected: %v", err)
	}

	cfg.Fault = fault.Config{TransientRate: 0.01}
	cfg.SpareLines = 8
	if _, err := Run(prof, tetris.New, cfg); !errors.As(err, &ce) || ce.Have != need-8 {
		t.Fatalf("spare region not charged against the device: %v", err)
	}
}

// Flip tags are one uint64 per line, one bit per (chip, data unit) pair,
// so a flip-tag scheme on lines with more than 64 pairs (256 B at the
// default 4 x16 chips) would drop the upper tags and decode wrong. Such
// runs are rejected up front with a typed error, through both entry
// points; schemes without tags still run there with the deep checks
// holding.
func TestRunRejectsFlipTagsOnWideLines(t *testing.T) {
	prof, _ := workload.ProfileByName("vips")
	cfg := smallConfig()
	cfg.Params.LineBytes = 256
	cfg.InstrBudget = 20_000
	cfg.Guard = guard.Config{Enabled: true, DeepChecks: true}
	recs := trace.Generate(prof, 2, 3, cfg.Params, 500)
	for _, tc := range []struct {
		name    string
		factory schemes.Factory
		reject  bool
	}{
		{"tetris", tetris.New, true},
		{"fnw", schemes.NewFlipNWrite, true},
		{"threestage", schemes.NewThreeStage, true},
		{"dcw", schemes.NewDCW, false},
		{"conventional", schemes.NewConventional, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := map[string]func() (Result, error){
				"run":   func() (Result, error) { return Run(prof, tc.factory, cfg) },
				"trace": func() (Result, error) { return RunTrace("vips", recs, 2, tc.factory, cfg) },
			}
			for entry, run := range runs {
				res, err := run()
				var fe *schemes.FlipTagError
				switch {
				case tc.reject && !errors.As(err, &fe):
					t.Errorf("%s: not rejected with a FlipTagError: %v", entry, err)
				case tc.reject && (fe.Pairs != 128 || fe.LineBytes != 256):
					t.Errorf("%s: FlipTagError reports %d pairs at %d B, want 128 at 256", entry, fe.Pairs, fe.LineBytes)
				case !tc.reject && err != nil:
					t.Errorf("%s: %v", entry, err)
				case !tc.reject && (res.Ctrl.Writes == 0 || res.Guard.DeepReplays == 0):
					t.Errorf("%s: no deep-checked writes: %+v", entry, res.Guard)
				}
			}
		})
	}
}

// Trace records the platform cannot replay are rejected by one scan
// before the engine starts, with a typed or named error rather than a
// *PanicError part-way through the run: an address below zero, past the
// device or inside the fault model's spare region, a write payload that
// is not one line, and a core the run does not have.
func TestRunTraceRejectsBadRecords(t *testing.T) {
	par := smallConfig().Params
	lines := par.Lines()
	line := make([]byte, par.LineBytes)
	read := func(core int, addr int64) trace.Record {
		return trace.Record{Core: core, Op: workload.Op{Think: 10, Addr: pcm.LineAddr(addr)}}
	}
	write := func(addr int64, data []byte) trace.Record {
		return trace.Record{Op: workload.Op{Think: 10, Write: true, Addr: pcm.LineAddr(addr), Data: data}}
	}
	faults := fault.Config{TransientRate: 0.01}
	for _, tc := range []struct {
		name     string
		rec      trace.Record
		fault    fault.Config
		capacity bool   // want a *CapacityError in the chain
		text     string // want this in the message
	}{
		{"negative-address", read(0, -1), fault.Config{}, true, "line address -1"},
		{"past-device", read(0, lines), fault.Config{}, true, fmt.Sprintf("line address %d", lines)},
		{"spare-region", read(0, lines-1), faults, true, fmt.Sprintf("device offers %d", lines-64)},
		{"short-write", write(5, line[:32]), fault.Config{}, false, "record 2: write of 32 bytes, line is 64"},
		{"long-write", write(5, append(line, 0)), fault.Config{}, false, "write of 65 bytes"},
		{"missing-core", read(2, 5), fault.Config{}, false, "record 2: core 2 out of range"},
		{"negative-core", read(-1, 5), fault.Config{}, false, "core -1 out of range"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig()
			cfg.InstrBudget = 20_000
			cfg.Fault = tc.fault
			recs := []trace.Record{read(0, 3), tc.rec, read(1, 4)}
			_, err := RunTrace("bad", recs, 2, tetris.New, cfg)
			var ce *CapacityError
			var pe *PanicError
			switch {
			case err == nil:
				t.Fatal("bad record accepted")
			case errors.As(err, &pe):
				t.Fatalf("bad record panicked mid-run: %v", err)
			case tc.capacity != errors.As(err, &ce):
				t.Errorf("CapacityError in chain = %v, want %v: %v", !tc.capacity, tc.capacity, err)
			case !strings.Contains(err.Error(), tc.text):
				t.Errorf("error %q does not contain %q", err, tc.text)
			}
		})
	}

	// The last usable line is accepted, with and without sparing.
	for _, f := range []fault.Config{{}, faults} {
		cfg := smallConfig()
		cfg.InstrBudget = 20_000
		cfg.Fault = f
		top := lines - 1
		if f.Enabled() {
			top -= 64
		}
		if _, err := RunTrace("edge", []trace.Record{read(0, top), write(top, line)}, 1, tetris.New, cfg); err != nil {
			t.Errorf("fault %+v: last usable line %d rejected: %v", f, top, err)
		}
	}
}
