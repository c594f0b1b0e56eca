package lang

import "fmt"

// Node is implemented by every AST node.
type Node interface {
	Pos() Pos
}

// ---------------------------------------------------------------------------
// Expressions

// Expr is an F-lite expression.
type Expr interface {
	Node
	exprNode()
}

// IntLit is an integer literal.
type IntLit struct {
	ValuePos Pos
	Value    int64
}

// RealLit is a floating-point literal.
type RealLit struct {
	ValuePos Pos
	Value    float64
	Text     string // original spelling, for printing
}

// BoolLit is "true" or "false".
type BoolLit struct {
	ValuePos Pos
	Value    bool
}

// StrLit is a string literal (usable only in PRINT).
type StrLit struct {
	ValuePos Pos
	Value    string
}

// Ident is a scalar variable reference (or a bare array name in
// declarations).
type Ident struct {
	NamePos Pos
	Name    string
	// Slot is set by sem to the slot of the symbol the name resolves to
	// (sem.Symbol.Slot, 1…n); it is 0 for a name never resolved.
	Slot int32
}

// ArrayRef is either an array element reference x(i,j) or an intrinsic
// function call min(a,b); semantic analysis distinguishes the two by setting
// Intrinsic.
type ArrayRef struct {
	NamePos   Pos
	Name      string
	Args      []Expr
	Intrinsic bool  // set by sem: this is an intrinsic call, not an array access
	Slot      int32 // set by sem for an array access, as Ident.Slot
}

// Op is an operator in a unary or binary expression.
type Op int

// Operators.
const (
	OpAdd Op = iota // +
	OpSub           // -
	OpMul           // *
	OpDiv           // /
	OpPow           // **
	OpNeg           // unary -
	OpEq            // ==
	OpNe            // !=
	OpLt            // <
	OpLe            // <=
	OpGt            // >
	OpGe            // >=
	OpAnd           // and
	OpOr            // or
	OpNot           // not
)

var opNames = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpPow: "**",
	OpNeg: "-", OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=",
	OpGt: ">", OpGe: ">=", OpAnd: "and", OpOr: "or", OpNot: "not",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// IsComparison reports whether o is a relational operator.
func (o Op) IsComparison() bool { return o >= OpEq && o <= OpGe }

// IsLogical reports whether o is a boolean connective.
func (o Op) IsLogical() bool { return o == OpAnd || o == OpOr || o == OpNot }

// Unary is a unary operation (negation or logical not).
type Unary struct {
	OpPos Pos
	Op    Op
	X     Expr
}

// Binary is a binary operation.
type Binary struct {
	Op   Op
	X, Y Expr
}

func (e *IntLit) Pos() Pos   { return e.ValuePos }
func (e *RealLit) Pos() Pos  { return e.ValuePos }
func (e *BoolLit) Pos() Pos  { return e.ValuePos }
func (e *StrLit) Pos() Pos   { return e.ValuePos }
func (e *Ident) Pos() Pos    { return e.NamePos }
func (e *ArrayRef) Pos() Pos { return e.NamePos }
func (e *Unary) Pos() Pos    { return e.OpPos }
func (e *Binary) Pos() Pos   { return e.X.Pos() }

func (*IntLit) exprNode()   {}
func (*RealLit) exprNode()  {}
func (*BoolLit) exprNode()  {}
func (*StrLit) exprNode()   {}
func (*Ident) exprNode()    {}
func (*ArrayRef) exprNode() {}
func (*Unary) exprNode()    {}
func (*Binary) exprNode()   {}

// ---------------------------------------------------------------------------
// Statements

// Stmt is an F-lite statement. Every statement can carry a numeric label
// (the target of GOTO).
type Stmt interface {
	Node
	// Label returns the numeric statement label, or 0 if unlabeled.
	Label() int
	// SetLabel attaches a numeric label.
	SetLabel(int)
	// SetPos attaches a source position. Passes that synthesize or move
	// statements use it to keep diagnostics anchored to the source line
	// the statement derives from.
	SetPos(Pos)
	// ID returns the statement's number, which the fact context and the
	// control graphs index by: sem.Check numbers the statements of a
	// program 1…n (NumberStmts). It is 0 for a statement never numbered.
	ID() int
	// base gives NumberStmts the number to write, and keeps Stmt to the
	// statement types of this package.
	base() *stmtBase
}

// stmtBase supplies position, label and number storage for statements.
type stmtBase struct {
	pos   Pos
	label int
	id    int
}

func (s *stmtBase) Pos() Pos        { return s.pos }
func (s *stmtBase) SetPos(p Pos)    { s.pos = p }
func (s *stmtBase) Label() int      { return s.label }
func (s *stmtBase) SetLabel(l int)  { s.label = l }
func (s *stmtBase) ID() int         { return s.id }
func (s *stmtBase) base() *stmtBase { return s }

// AssignStmt is "lhs = rhs" where lhs is an Ident or a non-intrinsic
// ArrayRef.
type AssignStmt struct {
	stmtBase
	Lhs Expr
	Rhs Expr
}

// IfStmt is a block IF with optional ELSEIF arms and ELSE.
type IfStmt struct {
	stmtBase
	Cond Expr
	Then []Stmt
	// Elifs are the "else if" arms in order.
	Elifs []ElifArm
	Else  []Stmt // nil if absent
}

// ElifArm is one "else if (cond) then" arm of an IfStmt.
type ElifArm struct {
	Pos  Pos
	Cond Expr
	Body []Stmt
}

// DoStmt is a counted DO loop: do Var = Lo, Hi [, Step] ... end do.
type DoStmt struct {
	stmtBase
	Var  *Ident
	Lo   Expr
	Hi   Expr
	Step Expr // nil means 1
	Body []Stmt

	// Parallel is set by the parallelizer when the loop has been proven
	// parallel. It is not part of the surface syntax.
	Parallel bool
	// Private lists the names of arrays and scalars to privatize per
	// iteration when the loop runs in parallel. Set by the parallelizer.
	Private []string
	// Reductions lists scalar reduction targets (e.g. sums) recognised in
	// this loop. Set by reduction recognition.
	Reductions []Reduction
}

// LoopName names the DO loop d of unit u as unit/do_var@line: the name a
// loop's verdict (parallel.LoopReport), its metrics entry and its
// machine.loop.<name>.* counters share.
func LoopName(u *Unit, d *DoStmt) string {
	return fmt.Sprintf("%s/do_%s@%d", u.Name, d.Var.Name, d.Pos().Line)
}

// Reduction describes one recognised reduction in a parallel loop.
type Reduction struct {
	Var string // scalar (or array name for array reductions)
	Op  Op     // OpAdd, OpMul, or min/max encoded as OpLt/OpGt
}

// WhileStmt is "do while (cond) ... end do".
type WhileStmt struct {
	stmtBase
	Cond Expr
	Body []Stmt
}

// CallStmt is "call name". F-lite subroutines take no arguments; values are
// passed through globals (the model assumed in the paper, §3.2.1).
type CallStmt struct {
	stmtBase
	Name string
}

// GotoStmt is "goto label".
type GotoStmt struct {
	stmtBase
	Target int
}

// ContinueStmt is the no-op "continue" statement (commonly a GOTO target).
type ContinueStmt struct {
	stmtBase
}

// ReturnStmt returns from a subroutine (or ends the main program).
type ReturnStmt struct {
	stmtBase
}

// StopStmt halts the program.
type StopStmt struct {
	stmtBase
}

// PrintStmt is "print expr, expr, ...".
type PrintStmt struct {
	stmtBase
	Args []Expr
}

// ---------------------------------------------------------------------------
// Declarations and program units

// BasicType is one of the three F-lite value types.
type BasicType int

// Value types.
const (
	TInteger BasicType = iota
	TReal
	TLogical
)

func (t BasicType) String() string {
	switch t {
	case TInteger:
		return "integer"
	case TReal:
		return "real"
	case TLogical:
		return "logical"
	}
	return fmt.Sprintf("BasicType(%d)", int(t))
}

// DimBound is one dimension of an array declaration, lo:hi. Lo is nil for
// the default lower bound of 1.
type DimBound struct {
	Lo Expr // nil ⇒ 1
	Hi Expr
}

// VarDecl declares one variable: a scalar if Dims is empty, else an array.
type VarDecl struct {
	NamePos Pos
	Name    string
	Type    BasicType
	Dims    []DimBound
}

// Pos returns the position of the declared name.
func (d *VarDecl) Pos() Pos { return d.NamePos }

// IsArray reports whether the declaration has dimensions.
func (d *VarDecl) IsArray() bool { return len(d.Dims) > 0 }

// ParamDecl declares a named integer constant: "param n = 100".
type ParamDecl struct {
	NamePos Pos
	Name    string
	Value   Expr // constant integer expression
}

// Pos returns the position of the parameter name.
func (d *ParamDecl) Pos() Pos { return d.NamePos }

// Unit is one program unit: the main program or a subroutine.
type Unit struct {
	NamePos Pos
	Name    string
	IsMain  bool
	Decls   []*VarDecl
	Params  []*ParamDecl
	Body    []Stmt
}

// Pos returns the position of the unit header.
func (u *Unit) Pos() Pos { return u.NamePos }

// Program is a whole F-lite program: one main unit plus subroutines.
type Program struct {
	Main *Unit
	Subs []*Unit
}

// Units returns all units, main first.
func (p *Program) Units() []*Unit {
	us := make([]*Unit, 0, len(p.Subs)+1)
	if p.Main != nil {
		us = append(us, p.Main)
	}
	return append(us, p.Subs...)
}

// Unit returns the unit with the given (lower-case) name, or nil.
func (p *Program) Unit(name string) *Unit {
	if p.Main != nil && p.Main.Name == name {
		return p.Main
	}
	for _, s := range p.Subs {
		if s.Name == name {
			return s
		}
	}
	return nil
}
