package lang

import (
	"fmt"
	"strconv"
	"strings"
)

// FormatExpr renders an expression as F-lite source text.
func FormatExpr(e Expr) string {
	var sb strings.Builder
	writeExpr(&sb, e, 0)
	return sb.String()
}

// precedence levels for parenthesisation when printing
func opPrec(op Op) int {
	switch op {
	case OpOr:
		return 1
	case OpAnd:
		return 2
	case OpNot:
		return 3
	case OpEq, OpNe, OpLt, OpLe, OpGt, OpGe:
		return 4
	case OpAdd, OpSub:
		return 5
	case OpMul, OpDiv:
		return 6
	case OpNeg:
		return 7
	case OpPow:
		return 8
	}
	return 9
}

func writeExpr(sb *strings.Builder, e Expr, parentPrec int) {
	switch e := e.(type) {
	case *IntLit:
		fmt.Fprintf(sb, "%d", e.Value)
	case *RealLit:
		if e.Text != "" {
			sb.WriteString(e.Text)
		} else {
			// A literal whose digits read as an integer gets ".0"; NaN
			// and ±Inf keep their spelling.
			t := strconv.FormatFloat(e.Value, 'g', -1, 64)
			sb.WriteString(t)
			if !strings.ContainsAny(t, ".eEnN") {
				sb.WriteString(".0")
			}
		}
	case *BoolLit:
		if e.Value {
			sb.WriteString("true")
		} else {
			sb.WriteString("false")
		}
	case *StrLit:
		fmt.Fprintf(sb, "%q", e.Value)
	case *Ident:
		sb.WriteString(e.Name)
	case *ArrayRef:
		sb.WriteString(e.Name)
		sb.WriteByte('(')
		for i, a := range e.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			writeExpr(sb, a, 0)
		}
		sb.WriteByte(')')
	case *Unary:
		prec := opPrec(e.Op)
		if prec < parentPrec {
			sb.WriteByte('(')
		}
		if e.Op == OpNot {
			sb.WriteString("not ")
		} else {
			sb.WriteByte('-')
		}
		writeExpr(sb, e.X, prec+1)
		if prec < parentPrec {
			sb.WriteByte(')')
		}
	case *Binary:
		prec := opPrec(e.Op)
		if prec < parentPrec {
			sb.WriteByte('(')
		}
		writeExpr(sb, e.X, prec)
		if e.Op == OpAnd || e.Op == OpOr {
			fmt.Fprintf(sb, " %s ", e.Op)
		} else if e.Op == OpPow {
			sb.WriteString("**")
		} else {
			fmt.Fprintf(sb, " %s ", e.Op)
		}
		// Right operand of -, / needs tighter binding.
		rp := prec
		if e.Op == OpSub || e.Op == OpDiv {
			rp = prec + 1
		}
		writeExpr(sb, e.Y, rp)
		if prec < parentPrec {
			sb.WriteByte(')')
		}
	default:
		fmt.Fprintf(sb, "<?expr %T>", e)
	}
}

// Format renders a whole program as F-lite source text.
func Format(p *Program) string {
	var sb strings.Builder
	for i, u := range p.Units() {
		if i > 0 {
			sb.WriteByte('\n')
		}
		FormatUnit(&sb, u)
	}
	return sb.String()
}

// FormatUnit renders one program unit into sb.
func FormatUnit(sb *strings.Builder, u *Unit) {
	if u.IsMain {
		fmt.Fprintf(sb, "program %s\n", u.Name)
	} else {
		fmt.Fprintf(sb, "subroutine %s\n", u.Name)
	}
	for _, pd := range u.Params {
		fmt.Fprintf(sb, "  param %s = %s\n", pd.Name, FormatExpr(pd.Value))
	}
	for _, d := range u.Decls {
		fmt.Fprintf(sb, "  %s %s", d.Type, d.Name)
		if d.IsArray() {
			sb.WriteByte('(')
			for i, b := range d.Dims {
				if i > 0 {
					sb.WriteString(", ")
				}
				if b.Lo != nil {
					fmt.Fprintf(sb, "%s:", FormatExpr(b.Lo))
				}
				sb.WriteString(FormatExpr(b.Hi))
			}
			sb.WriteByte(')')
		}
		sb.WriteByte('\n')
	}
	writeStmts(sb, u.Body, 1)
	sb.WriteString("end\n")
}

// FormatStmt renders a single statement (with nested bodies) as source text.
func FormatStmt(s Stmt) string {
	var sb strings.Builder
	writeStmt(&sb, s, 0)
	return strings.TrimRight(sb.String(), "\n")
}

func writeStmts(sb *strings.Builder, stmts []Stmt, depth int) {
	for _, s := range stmts {
		writeStmt(sb, s, depth)
	}
}

func indent(sb *strings.Builder, depth int, label int) {
	if label != 0 {
		fmt.Fprintf(sb, "%-4d", label)
		for i := 1; i < depth; i++ {
			sb.WriteString("  ")
		}
		return
	}
	for i := 0; i < depth; i++ {
		sb.WriteString("  ")
	}
}

func writeStmt(sb *strings.Builder, s Stmt, depth int) {
	indent(sb, depth, s.Label())
	switch s := s.(type) {
	case *AssignStmt:
		fmt.Fprintf(sb, "%s = %s\n", FormatExpr(s.Lhs), FormatExpr(s.Rhs))
	case *IfStmt:
		if len(s.Elifs) == 0 && s.Else == nil && len(s.Then) == 1 && isSimple(s.Then[0]) {
			fmt.Fprintf(sb, "if (%s) ", FormatExpr(s.Cond))
			var inner strings.Builder
			writeStmt(&inner, s.Then[0], 0)
			sb.WriteString(inner.String())
			return
		}
		fmt.Fprintf(sb, "if (%s) then\n", FormatExpr(s.Cond))
		writeStmts(sb, s.Then, depth+1)
		for _, arm := range s.Elifs {
			indent(sb, depth, 0)
			fmt.Fprintf(sb, "else if (%s) then\n", FormatExpr(arm.Cond))
			writeStmts(sb, arm.Body, depth+1)
		}
		if s.Else != nil {
			indent(sb, depth, 0)
			sb.WriteString("else\n")
			writeStmts(sb, s.Else, depth+1)
		}
		indent(sb, depth, 0)
		sb.WriteString("end if\n")
	case *DoStmt:
		if s.Parallel {
			sb.WriteString("!parallel ")
			if len(s.Private) > 0 {
				fmt.Fprintf(sb, "private(%s) ", strings.Join(s.Private, ", "))
			}
			sb.WriteByte('\n')
			indent(sb, depth, 0)
		}
		fmt.Fprintf(sb, "do %s = %s, %s", s.Var.Name, FormatExpr(s.Lo), FormatExpr(s.Hi))
		if s.Step != nil {
			fmt.Fprintf(sb, ", %s", FormatExpr(s.Step))
		}
		sb.WriteByte('\n')
		writeStmts(sb, s.Body, depth+1)
		indent(sb, depth, 0)
		sb.WriteString("end do\n")
	case *WhileStmt:
		fmt.Fprintf(sb, "do while (%s)\n", FormatExpr(s.Cond))
		writeStmts(sb, s.Body, depth+1)
		indent(sb, depth, 0)
		sb.WriteString("end do\n")
	case *CallStmt:
		fmt.Fprintf(sb, "call %s\n", s.Name)
	case *GotoStmt:
		fmt.Fprintf(sb, "goto %d\n", s.Target)
	case *ContinueStmt:
		sb.WriteString("continue\n")
	case *ReturnStmt:
		sb.WriteString("return\n")
	case *StopStmt:
		sb.WriteString("stop\n")
	case *PrintStmt:
		sb.WriteString("print ")
		for i, a := range s.Args {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString(FormatExpr(a))
		}
		sb.WriteByte('\n')
	default:
		fmt.Fprintf(sb, "<?stmt %T>\n", s)
	}
}

func isSimple(s Stmt) bool {
	switch s.(type) {
	case *AssignStmt, *CallStmt, *GotoStmt, *ContinueStmt, *ReturnStmt, *StopStmt, *PrintStmt:
		return s.Label() == 0
	}
	return false
}
