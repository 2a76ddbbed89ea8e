package fuzz

import (
	"strings"

	"repro/internal/verilog"
)

// Minimize delta-debugs a diverging module down to a minimal repro.
//
// The algorithm is a greedy fixed-point loop over AST-level reductions:
// each step parses the current source, enumerates every reduction site
// (remove a module item, remove a statement, collapse an if/case/for to
// one arm, replace a compound expression by a sub-expression), applies
// one, prints the result with the canonical printer, and re-runs the
// full differential check. A reduction is kept only when the module
// still gets through the frontend AND still diverges — invalid or
// divergence-losing reductions self-reject, so the minimizer needs no
// grammar-specific validity rules. The loop restarts after every
// accepted reduction and stops when a whole pass accepts nothing.
//
// Cycles and seed must match the campaign settings that exposed the
// divergence: the repro is minimal *for that input trace*.
func Minimize(src string, cycles int, seed int64) string {
	return MinimizeWith(src, func(candidate string) bool {
		rep, err := CheckSource(candidate, cycles, seed)
		return err == nil && rep.Diverged()
	})
}

// MinimizeWith shrinks src while check keeps returning true. check
// must hold for src itself; it is the interestingness predicate of the
// delta-debugging loop (for divergence hunting, "frontend accepts AND
// backends diverge").
func MinimizeWith(src string, check func(string) bool) string {
	if !check(src) {
		// Not a divergence under these settings; nothing to shrink.
		return src
	}
	cur := canonical(src)
	if !check(cur) {
		// Canonical printing itself lost the divergence (it shouldn't,
		// but never ship a non-repro): fall back to the raw source.
		return src
	}
	for {
		reduced := false
		n := countReductions(cur)
		for k := 0; k < n; k++ {
			cand, ok := applyReduction(cur, k)
			if !ok || cand == cur {
				continue
			}
			if check(cand) {
				cur = cand
				reduced = true
				break // restart: the site numbering has shifted
			}
		}
		if !reduced {
			return cur
		}
	}
}

// canonical round-trips src through the parser and printer.
func canonical(src string) string {
	file, diags := verilog.Parse(src)
	if diags.HasErrors() {
		return src
	}
	return verilog.Print(file)
}

// countReductions returns how many reduction sites src offers.
func countReductions(src string) int {
	file, diags := verilog.Parse(src)
	if diags.HasErrors() {
		return 0
	}
	r := &reducer{target: -1}
	r.file(file)
	return r.count
}

// applyReduction parses src, applies the k-th reduction, and prints
// the result. ok is false when the parse fails or k is out of range.
func applyReduction(src string, k int) (string, bool) {
	file, diags := verilog.Parse(src)
	if diags.HasErrors() {
		return "", false
	}
	r := &reducer{target: k}
	r.file(file)
	if !r.done {
		return "", false
	}
	return verilog.Print(file), true
}

// reducer walks the AST in a fixed order, counting reduction sites;
// when the counter hits target the mutation is applied in place.
type reducer struct {
	target int // -1 = count only
	count  int
	done   bool
}

// hit advances the site counter and reports whether this site is the
// one to mutate.
func (r *reducer) hit() bool {
	idx := r.count
	r.count++
	if idx == r.target && !r.done {
		r.done = true
		return true
	}
	return false
}

func (r *reducer) file(f *verilog.SourceFile) {
	for _, m := range f.Modules {
		r.module(m)
	}
}

func (r *reducer) module(m *verilog.Module) {
	// Drop one port (body references self-reject via sema).
	for i := range m.Ports {
		if r.hit() {
			m.Ports = append(m.Ports[:i], m.Ports[i+1:]...)
			return
		}
	}
	// Drop one module item.
	for i := range m.Items {
		if r.hit() {
			m.Items = append(m.Items[:i], m.Items[i+1:]...)
			return
		}
	}
	for _, item := range m.Items {
		switch it := item.(type) {
		case *verilog.AlwaysBlock:
			r.stmt(&it.Body)
		case *verilog.InitialBlock:
			r.stmt(&it.Body)
		case *verilog.AssignItem:
			r.expr(&it.RHS)
		case *verilog.Decl:
			for i := range it.Names {
				if it.Names[i].Init != nil {
					r.expr(&it.Names[i].Init)
				}
			}
		}
	}
}

// stmt visits a statement slot: offers to replace the statement with a
// simpler one, then recurses.
func (r *reducer) stmt(slot *verilog.Stmt) {
	switch st := (*slot).(type) {
	case *verilog.BlockStmt:
		for i := range st.Decls {
			if r.hit() {
				st.Decls = append(st.Decls[:i], st.Decls[i+1:]...)
				return
			}
		}
		for i := range st.Stmts {
			if r.hit() {
				st.Stmts = append(st.Stmts[:i], st.Stmts[i+1:]...)
				return
			}
		}
		for i := range st.Stmts {
			r.stmt(&st.Stmts[i])
		}
	case *verilog.AssignStmt:
		r.expr(&st.RHS)
		r.expr(&st.LHS)
	case *verilog.IfStmt:
		if r.hit() {
			*slot = st.Then
			return
		}
		if st.Else != nil {
			if r.hit() {
				*slot = st.Else
				return
			}
			if r.hit() {
				st.Else = nil
				return
			}
		}
		r.expr(&st.Cond)
		r.stmt(&st.Then)
		if st.Else != nil {
			r.stmt(&st.Else)
		}
	case *verilog.CaseStmt:
		for i := range st.Items {
			if r.hit() {
				*slot = st.Items[i].Body
				return
			}
		}
		for i := range st.Items {
			if len(st.Items) > 1 && r.hit() {
				st.Items = append(st.Items[:i], st.Items[i+1:]...)
				return
			}
		}
		r.expr(&st.Subject)
		for i := range st.Items {
			r.stmt(&st.Items[i].Body)
		}
	case *verilog.ForStmt:
		if r.hit() {
			*slot = st.Body
			return
		}
		r.expr(&st.Cond)
		r.stmt(&st.Body)
	}
}

// expr visits an expression slot: offers to replace the expression
// with one of its sub-expressions, then recurses.
func (r *reducer) expr(slot *verilog.Expr) {
	switch e := (*slot).(type) {
	case *verilog.Unary:
		if r.hit() {
			*slot = e.X
			return
		}
		r.expr(&e.X)
	case *verilog.Binary:
		if r.hit() {
			*slot = e.X
			return
		}
		if r.hit() {
			*slot = e.Y
			return
		}
		r.expr(&e.X)
		r.expr(&e.Y)
	case *verilog.Ternary:
		if r.hit() {
			*slot = e.Then
			return
		}
		if r.hit() {
			*slot = e.Else
			return
		}
		r.expr(&e.Cond)
		r.expr(&e.Then)
		r.expr(&e.Else)
	case *verilog.Concat:
		for i := range e.Elems {
			if r.hit() {
				*slot = e.Elems[i]
				return
			}
		}
		for i := range e.Elems {
			r.expr(&e.Elems[i])
		}
	case *verilog.Repl:
		if r.hit() {
			*slot = e.Value
			return
		}
		r.expr(&e.Value)
	case *verilog.Index:
		if r.hit() {
			*slot = e.X
			return
		}
		r.expr(&e.Idx)
	case *verilog.Slice:
		if r.hit() {
			*slot = e.X
			return
		}
		r.expr(&e.Hi)
		r.expr(&e.Lo)
	case *verilog.Call:
		if len(e.Args) == 1 {
			if r.hit() {
				*slot = e.Args[0]
				return
			}
		}
		for i := range e.Args {
			r.expr(&e.Args[i])
		}
	}
}

// LineCount reports how many non-blank lines a module occupies — the
// acceptance metric for "minimal repro" (<20 lines).
func LineCount(src string) int {
	n := 0
	for _, l := range strings.Split(src, "\n") {
		if strings.TrimSpace(l) != "" {
			n++
		}
	}
	return n
}
