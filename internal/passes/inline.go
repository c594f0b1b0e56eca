package passes

import (
	"fmt"
	"slices"

	"repro/internal/lang"
)

// InlineLimit is the auto-inlining size threshold: the paper's Polaris
// configuration inlines procedures that contain no I/O statements and fewer
// than fifty lines (§5.1.1).
const InlineLimit = 50

// Inline expands CALL statements whose callee qualifies for auto-inlining:
// no PRINT statements, no further CALLs (callees are processed bottom-up so
// nested calls inline first), fewer than InlineLimit statements, and no
// labels (splicing labeled statements could collide with caller labels).
// Callee locals are renamed <callee>__<name> and their declarations moved
// into the caller. RETURN statements in the callee body prevent inlining
// (they would need a branch to the splice end), and so does a subroutine
// caller that declares a name the callee uses as a global (its local would
// capture the global). Returns true on change.
func Inline(prog *lang.Program) bool {
	changed := false
	// Bottom-up over the (acyclic) call graph: repeatedly inline until no
	// change; termination is guaranteed because each round strictly
	// removes CALL edges to inlinable units.
	for round := 0; round < 16; round++ {
		roundChanged := false
		for _, u := range prog.Units() {
			u.Body = inlineStmts(prog, u, u.Body, &roundChanged)
		}
		if !roundChanged {
			break
		}
		changed = true
	}
	// Drop subroutines that are no longer called from anywhere.
	called := map[string]bool{}
	for _, u := range prog.Units() {
		lang.WalkStmts(u.Body, func(st lang.Stmt) bool {
			if c, ok := st.(*lang.CallStmt); ok {
				called[c.Name] = true
			}
			return true
		})
	}
	var kept []*lang.Unit
	for _, u := range prog.Subs {
		if called[u.Name] {
			kept = append(kept, u)
		} else {
			changed = true
		}
	}
	prog.Subs = kept
	return changed
}

// Inlinable reports whether a unit qualifies for auto-inlining.
func Inlinable(u *lang.Unit) bool {
	if u.IsMain {
		return false
	}
	if lang.CountStmts(u) >= InlineLimit {
		return false
	}
	ok := true
	lang.WalkStmts(u.Body, func(s lang.Stmt) bool {
		switch s.(type) {
		case *lang.PrintStmt, *lang.ReturnStmt, *lang.CallStmt, *lang.StopStmt:
			ok = false
		}
		if s.Label() != 0 {
			ok = false
		}
		return ok
	})
	return ok
}

func inlineStmts(prog *lang.Program, caller *lang.Unit, stmts []lang.Stmt, changed *bool) []lang.Stmt {
	var out []lang.Stmt
	for _, s := range stmts {
		switch s := s.(type) {
		case *lang.CallStmt:
			callee := prog.Unit(s.Name)
			if callee != nil && Inlinable(callee) && s.Label() == 0 && !capturesGlobal(caller, callee) {
				out = append(out, spliceCallee(caller, callee)...)
				*changed = true
				continue
			}
		case *lang.IfStmt:
			s.Then = inlineStmts(prog, caller, s.Then, changed)
			for i := range s.Elifs {
				s.Elifs[i].Body = inlineStmts(prog, caller, s.Elifs[i].Body, changed)
			}
			if s.Else != nil {
				s.Else = inlineStmts(prog, caller, s.Else, changed)
			}
		case *lang.DoStmt:
			s.Body = inlineStmts(prog, caller, s.Body, changed)
		case *lang.WhileStmt:
			s.Body = inlineStmts(prog, caller, s.Body, changed)
		}
		out = append(out, s)
	}
	return out
}

// capturesGlobal reports whether caller is a subroutine that declares a
// name callee uses without declaring it: spliced into caller, the use
// would read the caller's local instead of the global. No unit declares an
// intrinsic's name (sem rejects it), so an intrinsic call is never
// captured.
func capturesGlobal(caller, callee *lang.Unit) bool {
	if caller.IsMain {
		return false
	}
	captured := func(name string) bool { return declares(caller, name) && !declares(callee, name) }
	found := false
	use := func(e lang.Expr) {
		lang.WalkExpr(e, func(x lang.Expr) bool {
			switch x := x.(type) {
			case *lang.Ident:
				found = found || captured(x.Name)
			case *lang.ArrayRef:
				found = found || captured(x.Name)
			}
			return !found
		})
	}
	for _, d := range callee.Decls {
		for _, b := range d.Dims {
			use(b.Lo)
			use(b.Hi)
		}
	}
	for _, p := range callee.Params {
		use(p.Value)
	}
	lang.WalkStmts(callee.Body, func(s lang.Stmt) bool {
		if d, ok := s.(*lang.DoStmt); ok {
			use(d.Var)
		}
		lang.StmtExprs(s, use)
		return !found
	})
	return found
}

// declares reports whether u declares name, as a variable or a constant.
func declares(u *lang.Unit, name string) bool {
	return slices.ContainsFunc(u.Decls, func(d *lang.VarDecl) bool { return d.Name == name }) ||
		slices.ContainsFunc(u.Params, func(p *lang.ParamDecl) bool { return p.Name == name })
}

// spliceCallee clones the callee body with locals renamed and merges the
// renamed declarations into the caller.
func spliceCallee(caller, callee *lang.Unit) []lang.Stmt {
	rename := map[string]string{}
	for _, d := range callee.Decls {
		rename[d.Name] = fmt.Sprintf("%s__%s", callee.Name, d.Name)
	}
	for _, p := range callee.Params {
		rename[p.Name] = fmt.Sprintf("%s__%s", callee.Name, p.Name)
	}

	// Merge declarations (idempotent per callee: skip if already there).
	have := map[string]bool{}
	for _, d := range caller.Decls {
		have[d.Name] = true
	}
	for _, p := range caller.Params {
		have[p.Name] = true
	}
	for _, d := range callee.Decls {
		nn := rename[d.Name]
		if have[nn] {
			continue
		}
		nd := &lang.VarDecl{NamePos: d.NamePos, Name: nn, Type: d.Type}
		for _, b := range d.Dims {
			nd.Dims = append(nd.Dims, lang.DimBound{
				Lo: renameExpr(lang.CloneExpr(b.Lo), rename),
				Hi: renameExpr(lang.CloneExpr(b.Hi), rename),
			})
		}
		caller.Decls = append(caller.Decls, nd)
		have[nn] = true
	}
	for _, p := range callee.Params {
		nn := rename[p.Name]
		if have[nn] {
			continue
		}
		caller.Params = append(caller.Params, &lang.ParamDecl{
			NamePos: p.NamePos, Name: nn,
			Value: renameExpr(lang.CloneExpr(p.Value), rename),
		})
		have[nn] = true
	}

	body := lang.CloneStmts(callee.Body)
	lang.WalkStmts(body, func(s lang.Stmt) bool {
		lang.MapStmtExprs(s, func(e lang.Expr) lang.Expr {
			return renameNode(e, rename)
		})
		if d, ok := s.(*lang.DoStmt); ok {
			if nn, hit := rename[d.Var.Name]; hit {
				d.Var = &lang.Ident{NamePos: d.Var.NamePos, Name: nn}
			}
		}
		return true
	})
	return body
}

func renameExpr(e lang.Expr, rename map[string]string) lang.Expr {
	if e == nil {
		return nil
	}
	return lang.MapExpr(e, func(x lang.Expr) lang.Expr {
		return renameNode(x, rename)
	})
}

func renameNode(e lang.Expr, rename map[string]string) lang.Expr {
	switch x := e.(type) {
	case *lang.Ident:
		if nn, hit := rename[x.Name]; hit {
			return &lang.Ident{NamePos: x.NamePos, Name: nn}
		}
	case *lang.ArrayRef:
		if nn, hit := rename[x.Name]; hit {
			c := *x
			c.Name = nn
			return &c
		}
	}
	return e
}
