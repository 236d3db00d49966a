package tetris

import (
	"tetriswrite/internal/bitutil"
	"tetriswrite/internal/pcm"
	"tetriswrite/internal/schemes"
	"tetriswrite/internal/units"
)

// PlanPreset implements schemes.Presetter: it SETs every currently-RESET
// cell of the line (and clears any inversion tags), leaving the stored
// logical value all-ones. A later write to the line then needs only
// RESET pulses, which Tetris Write packs into a handful of
// sub-write-units — the PreSET effect.
//
// The preset reads first (so only amorphous cells are pulsed), pays no
// analysis overhead (there is nothing to schedule around: only SETs
// exist, and the packer's write-1 pass is the whole analysis), and packs
// the SETs under the same power budget as a normal write.
func (s *scheme) PlanPreset(addr pcm.LineAddr, old []byte) schemes.Plan {
	p := schemes.Plan{
		TSet:         s.par.TSet,
		TReset:       s.par.TReset,
		CurrentSet:   s.par.CurrentSet,
		CurrentReset: s.par.CurrentReset,
		Read:         s.par.TRead,
	}
	// Presets run on the idle path, so they allocate freely — but they
	// still draw the pulse buffer from the arena so plan recycling stays
	// uniform across both plan kinds.
	p.Pulses = s.TakePulses()
	nu := s.par.DataUnits()
	nc := s.par.NumChips
	k := s.par.K()

	// Work out, per chip slice, which cells are amorphous right now and
	// whether the flip cell must clear.
	work := make([][]presetWork, nc)
	flipSlot := s.flips.Ensure(int64(addr))
	flipWord := flipSlot[0]
	mask := bitutil.WidthMask(s.par.ChipWidthBits)
	wb := s.par.ChipWidthBits / 8
	for c := 0; c < nc; c++ {
		work[c] = make([]presetWork, nu)
		for u := 0; u < nu; u++ {
			logicalOld := bitutil.ChipSlice(old, nc, wb, c, u)
			encoded := logicalOld
			flip := flipWord&s.flipBit(c, u) != 0
			if flip {
				encoded = ^logicalOld & mask
			}
			work[c][u] = presetWork{setMask: ^encoded & mask, flipReset: flip}
			flipWord &^= s.flipBit(c, u)
		}
	}
	flipSlot[0] = flipWord

	// Pack the SETs exactly like a normal write's write-1 pass.
	type domain struct {
		chips  []int
		budget int
	}
	var domains []domain
	if s.par.GlobalChargePump {
		all := make([]int, nc)
		for c := range all {
			all[c] = c
		}
		domains = []domain{{chips: all, budget: s.par.BankBudget()}}
	} else {
		for c := 0; c < nc; c++ {
			domains = append(domains, domain{chips: []int{c}, budget: s.par.ChipBudget})
		}
	}
	maxResult := 0
	type emission struct {
		sched Schedule
		dom   domain
	}
	var emissions []emission
	for _, dom := range domains {
		in1 := make([]int, nu)
		for u := 0; u < nu; u++ {
			for _, c := range dom.chips {
				in1[u] += bitutil.PopCount16(work[c][u].setMask) * s.par.CurrentSet
			}
		}
		pk := Packer{Budget: dom.budget, K: k, Cost1: s.par.CurrentSet, Cost0: s.par.CurrentReset}
		sched := pk.Pack(in1, make([]int, nu))
		// Flip-cell RESETs ride in a sub-slot; ensure one exists.
		needFlipSlot := false
		for _, c := range dom.chips {
			for u := 0; u < nu; u++ {
				if work[c][u].flipReset {
					needFlipSlot = true
				}
			}
		}
		if needFlipSlot && sched.Result == 0 && sched.SubResult == 0 {
			sched.SubResult = 1
		}
		if sched.Result > maxResult {
			maxResult = sched.Result
		}
		emissions = append(emissions, emission{sched: sched, dom: dom})
	}
	maxSub := 0
	for _, em := range emissions {
		if em.sched.SubResult > maxSub {
			maxSub = em.sched.SubResult
		}
	}
	pitch := s.par.TSet / units.Duration(k)
	p.Write = units.Duration(maxResult)*s.par.TSet + units.Duration(maxSub)*pitch

	for _, em := range emissions {
		s.emitPreset(&p, em.sched, em.dom.chips, work, pitch)
	}
	return p
}

// presetWork is one chip slice's preset requirement.
type presetWork struct {
	setMask   uint16
	flipReset bool
}

// cellRef names one cell for the preset emitter (the write path walks
// transition masks directly and no longer materializes cell lists).
type cellRef struct {
	chip int
	bit  int
}

func (s *scheme) emitPreset(p *schemes.Plan, sched Schedule, chips []int, work [][]presetWork, pitch units.Duration) {
	nu := s.par.DataUnits()
	tset := s.par.TSet
	for u := 0; u < nu; u++ {
		// Distribute the domain's SET cells across the allocations, as
		// in a normal write.
		var cells []cellRef
		for _, c := range chips {
			for b := 0; b < 16; b++ {
				if work[c][u].setMask&(1<<b) != 0 {
					cells = append(cells, cellRef{chip: c, bit: b})
				}
			}
		}
		ci := 0
		for _, a := range sched.Write1[u] {
			n := a.Amount / s.par.CurrentSet
			masks := map[int]uint16{}
			for j := 0; j < n; j++ {
				masks[cells[ci].chip] |= 1 << cells[ci].bit
				ci++
			}
			for _, c := range chips {
				if m := masks[c]; m != 0 {
					p.Pulses = append(p.Pulses, schemes.Pulse{
						Chip: c, Unit: u, Kind: schemes.Set,
						Start: units.Duration(a.Slot) * tset, Mask: m,
					})
				}
			}
		}
		// Clear flip cells with a RESET rider in the first available slot.
		for _, c := range chips {
			if !work[c][u].flipReset {
				continue
			}
			var start units.Duration
			if len(sched.Write1[u]) > 0 {
				start = units.Duration(sched.Write1[u][0].Slot) * tset
			} else if sched.Result == 0 && sched.SubResult > 0 {
				start = 0 // first overflow sub-slot
			}
			p.Pulses = append(p.Pulses, schemes.Pulse{
				Chip: c, Unit: u, Kind: schemes.Reset,
				Start: start, FlipCell: true,
			})
		}
	}
	_ = pitch
}
