package interp

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/lang"
	"repro/internal/sem"
)

type signal int

const (
	sigNone signal = iota
	sigReturn
	sigStop
	sigJump
)

// stmtFn executes one lowered statement (or list). sigJump carries its
// target label.
type stmtFn func() (signal, int)

// unitCode is one lowered program unit: its body and its locals, which
// every CALL re-zeroes.
type unitCode struct {
	in      *Interp
	body    stmtFn
	scalars []*value
	zeros   []value
	arrays  []*array
}

// call runs the unit with fresh locals.
func (u *unitCode) call() {
	for i, p := range u.scalars {
		*p = u.zeros[i]
	}
	for _, a := range u.arrays {
		a.reset(false)
	}
	if sig, lbl := u.body(); sig == sigJump {
		u.in.fail(lang.Pos{}, "unresolved jump to label %d", lbl)
	}
}

// lowerer lowers the statements and expressions of one unit.
type lowerer struct {
	in    *Interp
	unit  *lang.Unit
	scope *sem.Scope
	units map[*lang.Unit]*unitCode
}

// lower allocates every unit's locals and lowers every unit, once per run,
// into a tree of closures whose names are already bound to storage:
// executing a statement or an expression is then a closure call that never
// looks a name up. Each expression's closure has the type sem gives the
// expression, and each statement charges, once and before it evaluates
// anything, the cost its expressions' closures do not charge themselves.
// Every runtime failure is raised when its construct executes, not when it
// is lowered. lower returns the main program.
func lower(in *Interp) *unitCode {
	prog := in.info.Program
	units := map[*lang.Unit]*unitCode{}
	for _, u := range prog.Units() {
		units[u] = &unitCode{in: in}
	}
	for _, u := range prog.Units() {
		l := &lowerer{in: in, unit: u, scope: in.info.Scope(u), units: units}
		code := units[u]
		for _, sym := range l.scope.Locals {
			in.alloc(sym)
			switch sym.Kind {
			case sem.ScalarSym:
				code.scalars = append(code.scalars, in.scalars[sym])
				code.zeros = append(code.zeros, zeroValue(sym.Type))
			case sem.ArraySym:
				code.arrays = append(code.arrays, in.arrays[sym])
			}
		}
		code.body = l.list(u.Body)
	}
	return units[prog.Main]
}

// scalar returns the storage of a scalar symbol; a symbol that has none
// (nil, or not a scalar) gets a fresh zero cell of its own.
func (l *lowerer) scalar(sym *sem.Symbol) *value {
	if p := l.in.scalars[sym]; p != nil {
		return p
	}
	v := value{}
	if sym != nil {
		v = zeroValue(sym.Type)
	}
	p := &v
	l.in.scalars[sym] = p
	return p
}

// list lowers a statement list. A jump resolves in the innermost enclosing
// list that holds its label; otherwise it propagates outwards.
func (l *lowerer) list(stmts []lang.Stmt) stmtFn {
	fns := make([]stmtFn, len(stmts))
	labels := make([]int, len(stmts))
	for i, s := range stmts {
		fns[i] = l.stmt(s)
		labels[i] = s.Label()
	}
	if len(fns) == 1 && labels[0] == 0 {
		return fns[0] // no jump resolves here
	}
	return func() (signal, int) {
		for i := 0; i < len(fns); {
			switch sig, lbl := fns[i](); sig {
			case sigNone:
				i++
			case sigJump:
				if i = slices.Index(labels, lbl); i < 0 {
					return sig, lbl
				}
			default:
				return sig, 0
			}
		}
		return sigNone, 0
	}
}

func (l *lowerer) stmt(s lang.Stmt) stmtFn {
	in := l.in
	switch s := s.(type) {
	case *lang.AssignStmt:
		return l.assign(s)

	case *lang.IfStmt:
		arms := []ifArm{l.arm(s.Cond, s.Then)}
		for _, arm := range s.Elifs {
			arms = append(arms, l.arm(arm.Cond, arm.Body))
		}
		els := l.list(s.Else)
		return func() (signal, int) {
			for _, arm := range arms {
				in.chargeN(arm.k.cycles, arm.k.steps)
				if arm.cond() {
					return arm.body()
				}
			}
			return els()
		}

	case *lang.DoStmt:
		return l.do(s)

	case *lang.WhileStmt:
		c := l.expr(s.Cond)
		cond, k, body := c.bool(), c.cost.plus(cost{2, 1}), l.list(s.Body)
		return func() (signal, int) {
			for {
				in.chargeN(k.cycles, k.steps)
				if !cond() {
					return sigNone, 0
				}
				if sig, lbl := body(); sig != sigNone {
					return sig, lbl
				}
			}
		}

	case *lang.CallStmt:
		callee := l.units[in.info.Program.Unit(s.Name)]
		return func() (signal, int) {
			in.chargeN(12, 1)
			if callee == nil {
				in.fail(s.Pos(), "call of unknown unit %q", s.Name)
			}
			callee.call()
			return sigNone, 0
		}

	case *lang.GotoStmt:
		return func() (signal, int) {
			in.chargeN(1, 1)
			return sigJump, s.Target
		}

	case *lang.ContinueStmt:
		return func() (signal, int) {
			in.chargeN(1, 1)
			return sigNone, 0
		}

	case *lang.ReturnStmt:
		return func() (signal, int) { return sigReturn, 0 }

	case *lang.StopStmt:
		return func() (signal, int) { return sigStop, 0 }

	case *lang.PrintStmt:
		return l.print(s)
	}
	kind := fmt.Sprintf("%T", s)
	return func() (signal, int) {
		in.fail(s.Pos(), "unknown statement %s", kind)
		return sigNone, 0
	}
}

// ifArm is one lowered arm of an IF: testing it costs 2 cycles and its
// condition.
type ifArm struct {
	cond func() bool
	k    cost
	body stmtFn
}

func (l *lowerer) arm(cond lang.Expr, body []lang.Stmt) ifArm {
	c := l.expr(cond)
	return ifArm{cond: c.bool(), k: c.cost.plus(cost{2, 1}), body: l.list(body)}
}

// print lowers a PRINT. Its arguments are evaluated, and charged, only
// when there is an output.
func (l *lowerer) print(s *lang.PrintStmt) stmtFn {
	in, out := l.in, l.in.opts.Out
	if out == nil {
		return func() (signal, int) {
			in.chargeN(20, 1)
			return sigNone, 0
		}
	}
	k := cost{20, 1}
	args := make([]func(io.Writer), len(s.Args))
	for i, a := range s.Args {
		if str, ok := a.(*lang.StrLit); ok {
			args[i] = func(w io.Writer) { fmt.Fprint(w, str.Value) }
			continue
		}
		c := l.expr(a)
		k = k.plus(c.cost)
		switch f, g, h := c.i, c.r, c.b; {
		case f != nil:
			args[i] = func(w io.Writer) { fmt.Fprintf(w, "%d", f()) }
		case g != nil:
			args[i] = func(w io.Writer) { fmt.Fprintf(w, "%g", g()) }
		default:
			args[i] = func(w io.Writer) { fmt.Fprintf(w, "%t", h()) }
		}
	}
	return func() (signal, int) {
		in.chargeN(k.cycles, k.steps)
		for i, arg := range args {
			if i > 0 {
				fmt.Fprint(out, " ")
			}
			arg(out)
		}
		fmt.Fprintln(out)
		return sigNone, 0
	}
}

// doLoop is what every execution form of one DO loop shares.
type doLoop struct {
	s    *lang.DoStmt
	lo   func() int64
	hi   func() int64
	step func() int64 // nil means 1
	k    cost         // of evaluating the bounds
	sym  *sem.Symbol
	v    *value // the loop variable's storage
	body stmtFn
}

// bounds charges and evaluates the loop bounds, once.
func (d *doLoop) bounds(in *Interp) (lo, hi, step int64) {
	in.chargeN(d.k.cycles, d.k.steps)
	lo, hi, step = d.lo(), d.hi(), 1
	if d.step != nil {
		if step = d.step(); step == 0 {
			in.fail(d.s.Pos(), "zero DO step")
		}
	}
	return lo, hi, step
}

// do lowers a DO loop to the one form it always runs in: observed,
// tracked, parallel or serial.
func (l *lowerer) do(s *lang.DoStmt) stmtFn {
	in := l.in
	sym := l.scope.Lookup(s.Var.Name)
	lo, hi := l.expr(s.Lo), l.expr(s.Hi)
	d := &doLoop{s: s, lo: lo.int(), hi: hi.int(), k: lo.cost.plus(hi.cost), sym: sym, v: l.scalar(sym)}
	if s.Step != nil {
		step := l.expr(s.Step)
		d.step, d.k = step.int(), d.k.plus(step.cost)
	}
	d.body = l.list(s.Body)
	parallel := s.Parallel && in.mach.P > 1
	switch {
	case in.opts.Observe != nil && in.opts.Observe.Loops[s]:
		return func() (signal, int) { return in.runDo(d, in.opts.Observe) }
	case in.opts.TrackLoops[s] && !parallel:
		return func() (signal, int) {
			// Per-loop attribution: measure committed machine time plus
			// the pending serial sink, which stays monotonic even when
			// nested parallel regions flush the sink.
			before := in.mach.Time() + in.cost
			sig, lbl := in.runDo(d, nil)
			if in.loopCycles == nil {
				in.loopCycles = map[*lang.DoStmt]uint64{}
			}
			in.loopCycles[s] += in.mach.Time() + in.cost - before
			return sig, lbl
		}
	case parallel:
		return l.parallelDo(d)
	}
	return func() (signal, int) { return in.runDo(d, nil) }
}

// runDo runs a DO loop serially. With o set the loop is observed: o sees
// its entry, the start of each iteration, its exit (also an early one
// through RETURN, STOP or GOTO), and every access made inside it.
func (in *Interp) runDo(d *doLoop, o *Observer) (signal, int) {
	lo, hi, step := d.bounds(in)
	if o != nil {
		if o.EnterLoop != nil {
			o.EnterLoop(d.s)
		}
		in.obsDepth++
		defer func() {
			in.obsDepth--
			if o.ExitLoop != nil {
				o.ExitLoop(d.s)
			}
		}()
	}
	// Iterate by counter, not by `v += step`: near the int64 extremes the
	// increment would wrap past hi and the v<=hi test would never fail.
	n := tripCountU(lo, hi, step)
	for k := uint64(0); k < n; k++ {
		in.chargeN(3, 1)
		v := lo + int64(k)*step
		if o != nil && o.IterStart != nil {
			o.IterStart(d.s, v)
		}
		*d.v = intV(v)
		if in.obsDepth > 0 {
			// Nested loop-variable writes are part of the footprint: a
			// nested loop var the parallelizer failed to privatize is a
			// real cross-iteration conflict.
			in.obsAccess(d.sym, -1, true)
		}
		if sig, lbl := d.body(); sig != sigNone {
			return sig, lbl
		}
	}
	// Fortran-style: the loop variable holds the first out-of-range value
	// (lo itself for a zero-trip loop).
	*d.v = intV(lo + int64(n)*step)
	return sigNone, 0
}
