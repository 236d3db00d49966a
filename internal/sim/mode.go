package sim

// EngineMode selects how the full-system simulation executes: serially
// on one goroutine (the seed behavior and the default), or with per-bank
// write planning offloaded to worker goroutines under conservative
// lookahead (see memctrl's parallel controller). Both modes produce
// bit-identical Results; the cross-check sweep in internal/system
// enforces it. The zero value resolves to the default.
type EngineMode string

const (
	// EngineSerial runs everything on the engine goroutine (default).
	EngineSerial EngineMode = "serial"
	// EngineParallel plans bank writes on per-bank worker goroutines,
	// joined at conservative-lookahead barriers so results stay
	// bit-identical to EngineSerial.
	EngineParallel EngineMode = "parallel"
)

// Valid reports whether the mode is known. The empty string is valid and
// resolves to EngineSerial.
func (m EngineMode) Valid() bool {
	switch m {
	case "", EngineSerial, EngineParallel:
		return true
	}
	return false
}

// Parallel reports whether the mode selects the parallel engine.
func (m EngineMode) Parallel() bool { return m == EngineParallel }
