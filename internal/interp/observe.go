package interp

import (
	"repro/internal/lang"
	"repro/internal/sem"
)

// Observer receives memory-access callbacks while execution is inside one
// of the selected DO loops. The lint verdict auditor uses it to replay a
// compiled program serially and collect per-iteration read/write footprints
// — the ground truth against which parallelization and privatization
// verdicts are audited.
//
// Accesses are reported only between EnterLoop and ExitLoop of an observed
// loop (observation nests: entering a second observed loop keeps the first
// active). Loop-bound evaluation happens before the first IterStart, so
// accesses made by the header land in the preceding frame (or in the
// pre-iteration window of the entered loop), exactly matching the
// evaluate-once semantics of a parallel DO.
type Observer struct {
	// Loops selects the DO statements to observe.
	Loops map[*lang.DoStmt]bool
	// EnterLoop fires when an observed loop begins one dynamic execution,
	// after its bounds were evaluated and before its first iteration.
	EnterLoop func(s *lang.DoStmt)
	// IterStart fires at the start of each iteration with the loop
	// variable's value for it.
	IterStart func(s *lang.DoStmt, v int64)
	// ExitLoop fires when the dynamic execution completes (also on early
	// exit through RETURN/STOP/GOTO out of the loop).
	ExitLoop func(s *lang.DoStmt)
	// Access fires for every scalar or array-element access made while at
	// least one observed loop is active: elem is the flat element index
	// for arrays and -1 for scalars; write distinguishes stores from
	// loads. DO-header writes of nested loop variables are included;
	// parameter (named-constant) reads are not.
	Access func(sym *sem.Symbol, elem int64, write bool)
}

// obsAccess forwards one access to the observer; callers check obsDepth
// first so the disabled path costs a single integer comparison.
func (in *Interp) obsAccess(sym *sem.Symbol, elem int64, write bool) {
	if in.opts.Observe.Access != nil {
		in.opts.Observe.Access(sym, elem, write)
	}
}
