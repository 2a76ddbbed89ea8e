package verilog

import (
	"fmt"
	"strings"
)

// Print renders a parsed source file back to Verilog text. The output is
// canonically formatted (tab indentation, one item per line) and is
// guaranteed to re-parse to an equivalent AST — the round-trip property
// the printer tests assert. The agent does not use the printer for its
// edits (those are deliberately textual, like a chat model's), but the
// fuzz minimizer does: it mutates a parsed AST, prints it, and re-runs
// the full frontend.
func Print(file *SourceFile) string {
	var p printer
	for _, d := range file.Directives {
		p.linef("`%s", d.Name)
	}
	for i, m := range file.Modules {
		if i > 0 || len(file.Directives) > 0 {
			p.linef("")
		}
		p.printModule(m)
	}
	return p.String()
}

// PrintModule renders a single module.
func PrintModule(m *Module) string {
	var p printer
	p.printModule(m)
	return p.String()
}

// ExprString renders one expression.
func ExprString(e Expr) string { return exprString(e) }

type printer struct {
	b      strings.Builder
	indent int
}

func (p *printer) String() string { return p.b.String() }

func (p *printer) linef(format string, args ...any) {
	for i := 0; i < p.indent; i++ {
		p.b.WriteByte('\t')
	}
	fmt.Fprintf(&p.b, format, args...)
	p.b.WriteByte('\n')
}

func (p *printer) printModule(m *Module) {
	if len(m.Ports) == 0 {
		p.linef("module %s;", m.Name)
	} else {
		p.linef("module %s (", m.Name)
		p.indent++
		for i, port := range m.Ports {
			sep := ","
			if i == len(m.Ports)-1 {
				sep = ""
			}
			p.linef("%s%s", portDeclString(port), sep)
		}
		p.indent--
		p.linef(");")
	}
	p.indent++
	for _, item := range m.Items {
		p.printItem(item)
	}
	p.indent--
	p.linef("endmodule")
}

func portDeclString(pd *PortDecl) string {
	var parts []string
	if pd.Dir != DirNone {
		parts = append(parts, pd.Dir.String())
	}
	if pd.Kind != KindNone {
		parts = append(parts, pd.Kind.String())
	}
	if pd.Signed {
		parts = append(parts, "signed")
	}
	if pd.VRange != nil {
		parts = append(parts, rangeString(pd.VRange))
	}
	parts = append(parts, pd.Name)
	return strings.Join(parts, " ")
}

func rangeString(r *Range) string {
	return "[" + exprString(r.MSB) + ":" + exprString(r.LSB) + "]"
}

func (p *printer) printItem(item Item) {
	switch it := item.(type) {
	case *PortItem:
		p.linef("%s;", portDeclString(&it.PortDecl))
	case *Decl:
		var parts []string
		parts = append(parts, it.Kind.String())
		if it.Signed {
			parts = append(parts, "signed")
		}
		if it.VRange != nil {
			parts = append(parts, rangeString(it.VRange))
		}
		var names []string
		for _, dn := range it.Names {
			if dn.Init != nil {
				names = append(names, dn.Name+" = "+exprString(dn.Init))
			} else {
				names = append(names, dn.Name)
			}
		}
		p.linef("%s %s;", strings.Join(parts, " "), strings.Join(names, ", "))
	case *ParamDecl:
		kw := "parameter"
		if it.Local {
			kw = "localparam"
		}
		var names []string
		for _, dn := range it.Names {
			names = append(names, dn.Name+" = "+exprString(dn.Init))
		}
		rng := ""
		if it.VRange != nil {
			rng = " " + rangeString(it.VRange)
		}
		p.linef("%s%s %s;", kw, rng, strings.Join(names, ", "))
	case *AssignItem:
		p.linef("assign %s = %s;", exprString(it.LHS), exprString(it.RHS))
	case *AlwaysBlock:
		p.linef("always %s", eventControlString(it))
		p.printStmtIndented(it.Body)
	case *InitialBlock:
		p.linef("initial")
		p.printStmtIndented(it.Body)
	}
}

func eventControlString(a *AlwaysBlock) string {
	if a.Star {
		return "@(*)"
	}
	var evs []string
	for _, ev := range a.Events {
		if ev.Edge != EdgeNone {
			evs = append(evs, ev.Edge.String()+" "+exprString(ev.Signal))
		} else {
			evs = append(evs, exprString(ev.Signal))
		}
	}
	return "@(" + strings.Join(evs, " or ") + ")"
}

// printStmtIndented prints a statement one level deeper unless it is a
// block (begin/end reads better at the same level).
func (p *printer) printStmtIndented(s Stmt) {
	if _, isBlock := s.(*BlockStmt); isBlock {
		p.printStmt(s)
		return
	}
	p.indent++
	p.printStmt(s)
	p.indent--
}

func (p *printer) printStmt(s Stmt) {
	switch st := s.(type) {
	case nil:
		p.linef(";")
	case *NullStmt:
		p.linef(";")
	case *BlockStmt:
		if st.Label != "" {
			p.linef("begin : %s", st.Label)
		} else {
			p.linef("begin")
		}
		p.indent++
		for _, d := range st.Decls {
			var names []string
			for _, dn := range d.Names {
				names = append(names, dn.Name)
			}
			rng := ""
			if d.VRange != nil {
				rng = " " + rangeString(d.VRange)
			}
			p.linef("%s%s %s;", d.Kind, rng, strings.Join(names, ", "))
		}
		for _, sub := range st.Stmts {
			p.printStmt(sub)
		}
		p.indent--
		p.linef("end")
	case *AssignStmt:
		op := "="
		if !st.Blocking {
			op = "<="
		}
		p.linef("%s %s %s;", exprString(st.LHS), op, exprString(st.RHS))
	case *IfStmt:
		p.linef("if (%s)", exprString(st.Cond))
		p.printStmtIndented(st.Then)
		if st.Else != nil {
			p.linef("else")
			p.printStmtIndented(st.Else)
		}
	case *CaseStmt:
		p.linef("%s (%s)", st.Kind, exprString(st.Subject))
		p.indent++
		for _, item := range st.Items {
			if item.Labels == nil {
				p.linef("default:")
			} else {
				var labels []string
				for _, l := range item.Labels {
					labels = append(labels, exprString(l))
				}
				p.linef("%s:", strings.Join(labels, ", "))
			}
			p.printStmtIndented(item.Body)
		}
		p.indent--
		p.linef("endcase")
	case *ForStmt:
		init := ""
		if st.Init != nil {
			prefix := ""
			if st.LoopVar != "" {
				prefix = "int "
			}
			init = prefix + exprString(st.Init.LHS) + " = " + exprString(st.Init.RHS)
		}
		step := ""
		if st.Step != nil {
			step = exprString(st.Step.LHS) + " = " + exprString(st.Step.RHS)
		}
		p.linef("for (%s; %s; %s)", init, exprString(st.Cond), step)
		p.printStmtIndented(st.Body)
	}
}

// exprString renders expressions fully parenthesized for binary and
// ternary operators, which keeps the round-trip AST association-exact
// without precedence bookkeeping.
func exprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Ident:
		return x.Name
	case *Number:
		return x.Text
	case *Unary:
		return x.Op + exprString(x.X)
	case *Binary:
		return "(" + exprString(x.X) + " " + x.Op + " " + exprString(x.Y) + ")"
	case *Ternary:
		return "(" + exprString(x.Cond) + " ? " + exprString(x.Then) + " : " + exprString(x.Else) + ")"
	case *Concat:
		var elems []string
		for _, el := range x.Elems {
			elems = append(elems, exprString(el))
		}
		return "{" + strings.Join(elems, ", ") + "}"
	case *Repl:
		return "{" + exprString(x.Count) + "{" + exprString(x.Value) + "}}"
	case *Index:
		return exprString(x.X) + "[" + exprString(x.Idx) + "]"
	case *Slice:
		switch x.Kind {
		case SelectPlus:
			return exprString(x.X) + "[" + exprString(x.Hi) + " +: " + exprString(x.Lo) + "]"
		case SelectMinus:
			return exprString(x.X) + "[" + exprString(x.Hi) + " -: " + exprString(x.Lo) + "]"
		default:
			return exprString(x.X) + "[" + exprString(x.Hi) + ":" + exprString(x.Lo) + "]"
		}
	case *Call:
		var args []string
		for _, a := range x.Args {
			args = append(args, exprString(a))
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	}
	return "/*?*/"
}
