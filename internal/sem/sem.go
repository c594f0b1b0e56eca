// Package sem performs semantic analysis of F-lite programs: symbol
// resolution, type checking, intrinsic recognition, label checking, and call
// graph construction.
//
// F-lite follows the variable model the paper assumes (§3.2.1): subroutines
// take no parameters; every variable declared in the main program is global
// and visible in every subroutine unless shadowed by a local declaration.
package sem

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/lang"
)

// SymbolKind distinguishes scalars, arrays and named constants.
type SymbolKind int

// Symbol kinds.
const (
	ScalarSym SymbolKind = iota
	ArraySym
	ParamSym
)

func (k SymbolKind) String() string {
	switch k {
	case ScalarSym:
		return "scalar"
	case ArraySym:
		return "array"
	case ParamSym:
		return "param"
	}
	return fmt.Sprintf("SymbolKind(%d)", int(k))
}

// Dim is one resolved array dimension with constant bounds.
type Dim struct {
	Lo, Hi int64
}

// Size returns the extent of the dimension.
func (d Dim) Size() int64 { return d.Hi - d.Lo + 1 }

// Symbol is a resolved variable, array or named constant.
type Symbol struct {
	Name   string
	Kind   SymbolKind
	Type   lang.BasicType
	Dims   []Dim // resolved bounds; only for ArraySym
	Global bool  // declared in the main program
	Value  int64 // constant value; only for ParamSym
	Decl   lang.Node
	// Slot numbers the symbol densely within its Info: the symbols of one
	// Check are 1…n in declaration order, and Info.Symbol maps a slot
	// back. Check writes it on every name it resolves (lang.Ident.Slot,
	// lang.ArrayRef.Slot), so code that holds the name's node needs no
	// lookup; slot 0 is no symbol.
	Slot int32
}

// NumElems returns the total number of elements of an array symbol.
func (s *Symbol) NumElems() int64 {
	n := int64(1)
	for _, d := range s.Dims {
		n *= d.Size()
	}
	return n
}

// Scope resolves names for one program unit: locals first, then globals.
type Scope struct {
	Unit    *lang.Unit
	Locals  map[string]*Symbol
	globals map[string]*Symbol
}

// Lookup resolves name in this scope, returning nil if undeclared.
func (sc *Scope) Lookup(name string) *Symbol {
	if s, ok := sc.Locals[name]; ok {
		return s
	}
	if s, ok := sc.globals[name]; ok {
		return s
	}
	return nil
}

// Slot returns the slot of the symbol name resolves to in this scope, or 0
// if it is undeclared.
func (sc *Scope) Slot(name string) int32 {
	if s := sc.Lookup(name); s != nil {
		return s.Slot
	}
	return 0
}

// Info is the result of semantic analysis.
type Info struct {
	Program *lang.Program
	Globals map[string]*Symbol
	Scopes  map[*lang.Unit]*Scope
	// Calls maps each unit to the (deduplicated, sorted) names of the
	// subroutines it calls.
	Calls map[*lang.Unit][]string
	// Labels maps each unit to its labeled statements.
	Labels map[*lang.Unit]map[int]lang.Stmt

	stmts int
	syms  []*Symbol // by slot; syms[0] is nil
}

// Symbol returns the symbol of slot, or nil for slot 0.
func (in *Info) Symbol(slot int32) *Symbol { return in.syms[slot] }

// NumSymbols returns how many symbols Check declared: their slots are
// 1…NumSymbols().
func (in *Info) NumSymbols() int { return len(in.syms) - 1 }

// NumStmts returns how many statements Check numbered: their numbers
// (lang.Stmt.ID) are 1…NumStmts().
func (in *Info) NumStmts() int { return in.stmts }

// Scope returns the scope of unit u.
func (in *Info) Scope(u *lang.Unit) *Scope { return in.Scopes[u] }

// CalleeOrder returns all units in reverse topological order of the call
// graph (callees before callers). The order is deterministic.
func (in *Info) CalleeOrder() []*lang.Unit {
	var order []*lang.Unit
	state := map[*lang.Unit]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(u *lang.Unit)
	visit = func(u *lang.Unit) {
		if state[u] != 0 {
			return
		}
		state[u] = 1
		for _, callee := range in.Calls[u] {
			if cu := in.Program.Unit(callee); cu != nil {
				visit(cu)
			}
		}
		state[u] = 2
		order = append(order, u)
	}
	for _, u := range in.Program.Units() {
		visit(u)
	}
	return order
}

// A SemError is a semantic error with a source position.
type SemError struct {
	Pos lang.Pos
	Msg string
}

func (e *SemError) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList collects multiple semantic errors.
type ErrorList []*SemError

func (l ErrorList) Error() string {
	if len(l) == 0 {
		return "no errors"
	}
	msgs := make([]string, 0, len(l))
	for _, e := range l {
		msgs = append(msgs, e.Error())
	}
	return strings.Join(msgs, "\n")
}

type checker struct {
	prog   *lang.Program
	info   *Info
	errs   ErrorList
	params map[string]int64 // visible named constants while resolving decls
	// readOnly keeps the checker from writing the AST: TypeOf's checks
	// set neither slots nor intrinsic flags.
	readOnly bool
	// listOf is, by statement number, the statement list that holds the
	// statement, and up, by list, the list enclosing it (-1 for a unit
	// body), as lang.NumberStmts numbered them.
	listOf []int
	up     []int
}

func (c *checker) errorf(pos lang.Pos, format string, args ...any) {
	c.errs = append(c.errs, &SemError{pos, fmt.Sprintf(format, args...)})
}

// Intrinsics lists the F-lite intrinsic functions with their arity bounds
// (-1 means variadic with at least MinArgs).
var Intrinsics = map[string]struct {
	MinArgs int
	MaxArgs int // -1 means unbounded
}{
	"mod":  {2, 2},
	"min":  {2, -1},
	"max":  {2, -1},
	"abs":  {1, 1},
	"sqrt": {1, 1},
	"sin":  {1, 1},
	"cos":  {1, 1},
	"exp":  {1, 1},
	"log":  {1, 1},
	"int":  {1, 1},
	"real": {1, 1},
}

// Check performs full semantic analysis of prog. On success it returns an
// Info and mutates the AST in three ways only: it numbers the statements
// (lang.NumberStmts), every name it resolves in a statement gets its
// symbol's slot, and ArrayRef nodes that are intrinsic calls get their
// Intrinsic flag set.
func Check(prog *lang.Program) (*Info, error) {
	c := &checker{
		prog: prog,
		info: &Info{
			Program: prog,
			Globals: map[string]*Symbol{},
			Scopes:  map[*lang.Unit]*Scope{},
			Calls:   map[*lang.Unit][]string{},
			Labels:  map[*lang.Unit]map[int]lang.Stmt{},
			syms:    []*Symbol{nil},
		},
	}
	if prog.Main == nil {
		c.errorf(lang.Pos{Line: 1, Col: 1}, "program has no main unit")
		return nil, c.errs
	}
	// Statement k is the k-th the numbering meets, so listOf starts with
	// a slot for number 0, which no statement has.
	c.listOf = []int{-1}
	c.info.stmts = lang.NumberStmts(prog, func(list, up int) {
		c.listOf = append(c.listOf, list)
		if list == len(c.up) {
			c.up = append(c.up, up)
		}
	})

	// Pass 1: declarations. Main first so globals are visible everywhere.
	c.declareUnit(prog.Main, true)
	seen := map[string]*lang.Unit{prog.Main.Name: prog.Main}
	for _, s := range prog.Subs {
		if prev, dup := seen[s.Name]; dup {
			c.errorf(s.NamePos, "unit %q redeclared (previous at %s)", s.Name, prev.NamePos)
			continue
		}
		seen[s.Name] = s
		c.declareUnit(s, false)
	}

	// Pass 2: bodies.
	for _, u := range prog.Units() {
		if c.info.Scopes[u] != nil {
			c.checkUnit(u)
		}
	}

	// Pass 3: call graph sanity (targets exist, no recursion).
	c.checkCallGraph()

	if len(c.errs) > 0 {
		return nil, c.errs
	}
	return c.info, nil
}

func (c *checker) declareUnit(u *lang.Unit, isMain bool) {
	sc := &Scope{Unit: u, Locals: map[string]*Symbol{}, globals: c.info.Globals}
	c.info.Scopes[u] = sc
	target := sc.Locals
	if isMain {
		target = c.info.Globals
	}

	c.params = map[string]int64{}
	// Named constants from the main unit are visible in subroutines too.
	for name, s := range c.info.Globals {
		if s.Kind == ParamSym {
			c.params[name] = s.Value
		}
	}

	for _, pd := range u.Params {
		v, ok := c.constInt(pd.Value)
		if !ok {
			c.errorf(pd.NamePos, "param %q must be a constant integer expression", pd.Name)
			continue
		}
		if _, dup := target[pd.Name]; dup {
			c.errorf(pd.NamePos, "%q redeclared", pd.Name)
			continue
		}
		c.declare(target, &Symbol{
			Name: pd.Name, Kind: ParamSym, Type: lang.TInteger,
			Global: isMain, Value: v, Decl: pd,
		})
		c.params[pd.Name] = v
	}

	for _, d := range u.Decls {
		if _, dup := target[d.Name]; dup {
			c.errorf(d.NamePos, "%q redeclared", d.Name)
			continue
		}
		if _, isIntr := Intrinsics[d.Name]; isIntr {
			c.errorf(d.NamePos, "%q shadows an intrinsic function", d.Name)
			continue
		}
		sym := &Symbol{Name: d.Name, Type: d.Type, Global: isMain, Decl: d}
		if d.IsArray() {
			sym.Kind = ArraySym
			ok := true
			for _, b := range d.Dims {
				lo := int64(1)
				if b.Lo != nil {
					v, okc := c.constInt(b.Lo)
					if !okc {
						c.errorf(d.NamePos, "array %q: lower bound is not a constant integer expression", d.Name)
						ok = false
						break
					}
					lo = v
				}
				hi, okc := c.constInt(b.Hi)
				if !okc {
					c.errorf(d.NamePos, "array %q: upper bound is not a constant integer expression", d.Name)
					ok = false
					break
				}
				if hi < lo {
					c.errorf(d.NamePos, "array %q: empty dimension %d:%d", d.Name, lo, hi)
					ok = false
					break
				}
				sym.Dims = append(sym.Dims, Dim{Lo: lo, Hi: hi})
			}
			if !ok {
				continue
			}
		} else {
			sym.Kind = ScalarSym
		}
		c.declare(target, sym)
	}
}

// declare enters sym into table under its name and gives it the next slot.
func (c *checker) declare(table map[string]*Symbol, sym *Symbol) {
	sym.Slot = int32(len(c.info.syms))
	c.info.syms = append(c.info.syms, sym)
	table[sym.Name] = sym
}

// resolve records on a name's node the slot of the symbol it resolves to.
func (c *checker) resolve(slot *int32, sym *Symbol) {
	if !c.readOnly {
		*slot = sym.Slot
	}
}

// constInt evaluates a constant integer expression (literals, params, + - *
// / and unary minus).
func (c *checker) constInt(e lang.Expr) (int64, bool) {
	switch e := e.(type) {
	case *lang.IntLit:
		return e.Value, true
	case *lang.Ident:
		v, ok := c.params[e.Name]
		return v, ok
	case *lang.Unary:
		if e.Op == lang.OpNeg {
			v, ok := c.constInt(e.X)
			return -v, ok
		}
	case *lang.Binary:
		x, okx := c.constInt(e.X)
		y, oky := c.constInt(e.Y)
		if !okx || !oky {
			return 0, false
		}
		switch e.Op {
		case lang.OpAdd:
			return x + y, true
		case lang.OpSub:
			return x - y, true
		case lang.OpMul:
			return x * y, true
		case lang.OpDiv:
			if y == 0 {
				return 0, false
			}
			return x / y, true
		}
	}
	return 0, false
}

func (c *checker) checkUnit(u *lang.Unit) {
	sc := c.info.Scopes[u]
	labels := map[int]lang.Stmt{}
	c.info.Labels[u] = labels

	// Collect labels first (GOTO may jump forward).
	lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
		if l := s.Label(); l != 0 {
			if prev, dup := labels[l]; dup {
				c.errorf(s.Pos(), "label %d already used at %s", l, prev.Pos())
			} else {
				labels[l] = s
			}
		}
		return true
	})

	var calls []string
	callSeen := map[string]bool{}

	// checkBody records calls and checks jump targets here; checkStmt
	// checks every other statement and hands its nested lists back.
	var checkBody func(stmts []lang.Stmt)
	checkBody = func(stmts []lang.Stmt) {
		for _, s := range stmts {
			switch s := s.(type) {
			case *lang.CallStmt:
				if !callSeen[s.Name] {
					callSeen[s.Name] = true
					calls = append(calls, s.Name)
				}
				if c.prog.Unit(s.Name) == nil {
					c.errorf(s.Pos(), "call of undefined subroutine %q", s.Name)
				} else if s.Name == u.Name {
					c.errorf(s.Pos(), "recursive call of %q (recursion is not supported)", s.Name)
				}
			case *lang.GotoStmt:
				if _, ok := labels[s.Target]; !ok {
					c.errorf(s.Pos(), "goto %d: no such label in unit %q", s.Target, u.Name)
				}
			default:
				c.checkStmt(sc, s, checkBody)
			}
		}
	}
	checkBody(u.Body)
	sort.Strings(calls)
	c.info.Calls[u] = calls

	c.checkGotoRegions(u)
}

// checkStmt checks the expressions of statement s itself against sc and
// hands each statement list nested in s to body, in source order, between
// the checks of the conditions around it. CALL, GOTO, CONTINUE, RETURN and
// STOP have no expressions to check.
func (c *checker) checkStmt(sc *Scope, s lang.Stmt, body func([]lang.Stmt)) {
	switch s := s.(type) {
	case *lang.AssignStmt:
		lt := c.checkLvalue(sc, s.Lhs)
		rt := c.checkExpr(sc, s.Rhs)
		c.requireAssignable(s.Pos(), lt, rt)
	case *lang.IfStmt:
		c.requireLogical(sc, s.Cond)
		body(s.Then)
		for _, arm := range s.Elifs {
			c.requireLogical(sc, arm.Cond)
			body(arm.Body)
		}
		body(s.Else)
	case *lang.DoStmt:
		iv := sc.Lookup(s.Var.Name)
		switch {
		case iv == nil:
			c.errorf(s.Var.NamePos, "undeclared loop variable %q", s.Var.Name)
		case iv.Kind != ScalarSym || iv.Type != lang.TInteger:
			c.errorf(s.Var.NamePos, "loop variable %q must be an integer scalar", s.Var.Name)
		default:
			c.resolve(&s.Var.Slot, iv)
		}
		c.requireInteger(sc, s.Lo)
		c.requireInteger(sc, s.Hi)
		if s.Step != nil {
			c.requireInteger(sc, s.Step)
		}
		body(s.Body)
	case *lang.WhileStmt:
		c.requireLogical(sc, s.Cond)
		body(s.Body)
	case *lang.PrintStmt:
		for _, a := range s.Args {
			c.checkExpr(sc, a)
		}
	}
}

// CheckStmt checks the expressions of s, a statement of unit u that a pass
// rewrote after Check, against u's scope as Check would, without its
// nested statements. A rewrite of a statement's expressions changes none
// of what else Check decides (declarations, labels, jumps, calls), so
// this is what stays to check. Like Check, it sets the slot of every name
// it resolves and the Intrinsic flag of the intrinsic calls it meets.
func (in *Info) CheckStmt(u *lang.Unit, s lang.Stmt) error {
	c := &checker{prog: in.Program, info: in}
	c.checkStmt(in.Scopes[u], s, func([]lang.Stmt) {})
	if len(c.errs) > 0 {
		return c.errs
	}
	return nil
}

// TypeOf returns the type Check gives expression e in unit u's scope. A
// pass asks it before it lets an expression stand for a scalar: the two
// must have one type, or the assignment's implicit conversion is lost. It
// only reads e.
func (in *Info) TypeOf(u *lang.Unit, e lang.Expr) lang.BasicType {
	c := checker{prog: in.Program, info: in, readOnly: true}
	return c.checkExpr(in.Scopes[u], e)
}

// checkGotoRegions rejects GOTOs that jump into a nested block (the CFG and
// all structured analyses assume single-entry regions). A jump is legal if
// the target statement is in the same statement list as the GOTO or in a
// lexically enclosing one.
func (c *checker) checkGotoRegions(u *lang.Unit) {
	labels := c.info.Labels[u]
	lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
		g, ok := s.(*lang.GotoStmt)
		if !ok {
			return true
		}
		target, ok := labels[g.Target]
		if !ok {
			return true // already reported
		}
		// Legal iff the target's list is the goto's own list or encloses it.
		list := c.listOf[g.ID()]
		for list >= 0 && list != c.listOf[target.ID()] {
			list = c.up[list]
		}
		if list < 0 {
			c.errorf(g.Pos(), "goto %d jumps into a nested block", g.Target)
		}
		return true
	})
}

func (c *checker) checkCallGraph() {
	// Detect mutual recursion with a DFS over call edges.
	const (
		white = 0
		grey  = 1
		black = 2
	)
	state := map[string]int{}
	var visit func(u *lang.Unit) bool
	visit = func(u *lang.Unit) bool {
		switch state[u.Name] {
		case grey:
			c.errorf(u.NamePos, "subroutine %q is recursive (possibly mutually); recursion is not supported", u.Name)
			return false
		case black:
			return true
		}
		state[u.Name] = grey
		for _, callee := range c.info.Calls[u] {
			if cu := c.prog.Unit(callee); cu != nil {
				if !visit(cu) {
					break
				}
			}
		}
		state[u.Name] = black
		return true
	}
	for _, u := range c.prog.Units() {
		visit(u)
	}
}

// typeOrInvalid is used for error recovery: on a type error we report and
// continue with TInteger.
const invalidRecoveryType = lang.TInteger

func (c *checker) checkLvalue(sc *Scope, e lang.Expr) lang.BasicType {
	switch e := e.(type) {
	case *lang.Ident:
		sym := sc.Lookup(e.Name)
		if sym == nil {
			c.errorf(e.NamePos, "undeclared variable %q", e.Name)
			return invalidRecoveryType
		}
		if sym.Kind == ParamSym {
			c.errorf(e.NamePos, "cannot assign to constant %q", e.Name)
			return sym.Type
		}
		if sym.Kind == ArraySym {
			c.errorf(e.NamePos, "cannot assign to whole array %q", e.Name)
			return sym.Type
		}
		c.resolve(&e.Slot, sym)
		return sym.Type
	case *lang.ArrayRef:
		sym := sc.Lookup(e.Name)
		if sym == nil {
			c.errorf(e.NamePos, "undeclared array %q", e.Name)
			return invalidRecoveryType
		}
		if sym.Kind != ArraySym {
			c.errorf(e.NamePos, "%q is not an array", e.Name)
			return sym.Type
		}
		c.resolve(&e.Slot, sym)
		if len(e.Args) != len(sym.Dims) {
			c.errorf(e.NamePos, "array %q has %d dimensions, subscripted with %d", e.Name, len(sym.Dims), len(e.Args))
		}
		for _, a := range e.Args {
			c.requireInteger(sc, a)
		}
		return sym.Type
	}
	c.errorf(e.Pos(), "invalid assignment target")
	return invalidRecoveryType
}

func (c *checker) checkExpr(sc *Scope, e lang.Expr) lang.BasicType {
	switch e := e.(type) {
	case *lang.IntLit:
		return lang.TInteger
	case *lang.RealLit:
		return lang.TReal
	case *lang.BoolLit:
		return lang.TLogical
	case *lang.StrLit:
		// Strings are only printable; give them logical type so any
		// arithmetic use errors out.
		return lang.TLogical
	case *lang.Ident:
		sym := sc.Lookup(e.Name)
		if sym == nil {
			c.errorf(e.NamePos, "undeclared variable %q", e.Name)
			return invalidRecoveryType
		}
		if sym.Kind == ArraySym {
			c.errorf(e.NamePos, "array %q used without subscripts", e.Name)
		}
		c.resolve(&e.Slot, sym)
		return sym.Type
	case *lang.ArrayRef:
		return c.checkRefOrIntrinsic(sc, e)
	case *lang.Unary:
		xt := c.checkExpr(sc, e.X)
		if e.Op == lang.OpNot {
			if xt != lang.TLogical {
				c.errorf(e.Pos(), "operand of 'not' must be logical")
			}
			return lang.TLogical
		}
		if xt == lang.TLogical {
			c.errorf(e.Pos(), "cannot negate a logical value")
			return invalidRecoveryType
		}
		return xt
	case *lang.Binary:
		xt := c.checkExpr(sc, e.X)
		yt := c.checkExpr(sc, e.Y)
		switch {
		case e.Op.IsLogical():
			if xt != lang.TLogical || yt != lang.TLogical {
				c.errorf(e.Pos(), "operands of %s must be logical", e.Op)
			}
			return lang.TLogical
		case e.Op.IsComparison():
			if xt == lang.TLogical || yt == lang.TLogical {
				if xt != yt {
					c.errorf(e.Pos(), "cannot compare logical and numeric values")
				} else if e.Op != lang.OpEq && e.Op != lang.OpNe {
					c.errorf(e.Pos(), "logical values only support == and !=")
				}
			}
			return lang.TLogical
		default: // arithmetic
			if xt == lang.TLogical || yt == lang.TLogical {
				c.errorf(e.Pos(), "logical operand of arithmetic %s", e.Op)
				return invalidRecoveryType
			}
			if xt == lang.TReal || yt == lang.TReal {
				return lang.TReal
			}
			return lang.TInteger
		}
	}
	c.errorf(e.Pos(), "invalid expression")
	return invalidRecoveryType
}

func (c *checker) checkRefOrIntrinsic(sc *Scope, e *lang.ArrayRef) lang.BasicType {
	if sym := sc.Lookup(e.Name); sym != nil {
		if sym.Kind != ArraySym {
			c.errorf(e.NamePos, "%q is not an array", e.Name)
			return sym.Type
		}
		c.resolve(&e.Slot, sym)
		if len(e.Args) != len(sym.Dims) {
			c.errorf(e.NamePos, "array %q has %d dimensions, subscripted with %d", e.Name, len(sym.Dims), len(e.Args))
		}
		for _, a := range e.Args {
			c.requireInteger(sc, a)
		}
		return sym.Type
	}
	intr, ok := Intrinsics[e.Name]
	if !ok {
		c.errorf(e.NamePos, "undeclared array or unknown intrinsic %q", e.Name)
		return invalidRecoveryType
	}
	if !c.readOnly {
		e.Intrinsic = true
	}
	n := len(e.Args)
	if n < intr.MinArgs || (intr.MaxArgs >= 0 && n > intr.MaxArgs) {
		c.errorf(e.NamePos, "intrinsic %q: wrong number of arguments (%d)", e.Name, n)
	}
	argTypes := make([]lang.BasicType, 0, n)
	for _, a := range e.Args {
		t := c.checkExpr(sc, a)
		if t == lang.TLogical {
			c.errorf(a.Pos(), "intrinsic %q: logical argument", e.Name)
		}
		argTypes = append(argTypes, t)
	}
	switch e.Name {
	case "mod":
		if len(argTypes) == 2 && (argTypes[0] == lang.TReal || argTypes[1] == lang.TReal) {
			return lang.TReal
		}
		return lang.TInteger
	case "min", "max", "abs":
		for _, t := range argTypes {
			if t == lang.TReal {
				return lang.TReal
			}
		}
		return lang.TInteger
	case "int":
		return lang.TInteger
	default: // sqrt, sin, cos, exp, log, real
		return lang.TReal
	}
}

func (c *checker) requireLogical(sc *Scope, e lang.Expr) {
	if t := c.checkExpr(sc, e); t != lang.TLogical {
		c.errorf(e.Pos(), "condition must be logical, got %s", t)
	}
}

func (c *checker) requireInteger(sc *Scope, e lang.Expr) {
	if t := c.checkExpr(sc, e); t != lang.TInteger {
		c.errorf(e.Pos(), "expression must be integer, got %s", t)
	}
}

func (c *checker) requireAssignable(pos lang.Pos, lt, rt lang.BasicType) {
	switch {
	case lt == rt:
	case lt == lang.TReal && rt == lang.TInteger: // implicit widening
	case lt == lang.TInteger && rt == lang.TReal: // implicit truncation, Fortran-style
	default:
		c.errorf(pos, "cannot assign %s to %s", rt, lt)
	}
}
