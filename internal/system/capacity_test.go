package system

import (
	"errors"
	"fmt"
	"testing"

	"tetriswrite/internal/fault"
	"tetriswrite/internal/guard"
	"tetriswrite/internal/tetris"
	"tetriswrite/internal/workload"
)

// Lines of 512 B and more leave a 4 GiB device with fewer lines than the
// workload's 64 B-sized allocation frontiers span. These configurations
// used to pass validation and then panic mid-run on an out-of-range line
// address; the frontiers now shrink to fit the device, so each runs to
// completion.
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
			cfg.Guard = guard.Config{Enabled: true}
			res, err := Run(prof, tetris.New, cfg)
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
