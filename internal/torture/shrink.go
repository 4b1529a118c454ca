package torture

// The shrinker reduces a program while preserving a predicate — "still fails
// with the same category" for campaign failures, "still traps with the same
// layer attribution" when minimizing corpus reproducers. It is greedy and
// deterministic: candidates are enumerated in a fixed order, the first
// accepted one restarts the scan, and the total number of evaluations is
// bounded, so a given (program, predicate) always shrinks to the same
// minimum.

import "amuletiso/internal/engine"

// maxShrinkEvals bounds predicate evaluations per shrink (each evaluation
// compiles and runs the candidate under every relevant mode).
const maxShrinkEvals = 1500

// shrinkProgram reduces p while keep(candidate) holds.
func shrinkProgram(p *program, keep func(*program) bool) *program {
	cur := p
	evals := 0
	for {
		improved := false
		for _, cand := range programCandidates(cur) {
			evals++
			if evals > maxShrinkEvals {
				return cur
			}
			if keep(cand) {
				cur = cand
				improved = true
				break
			}
		}
		if !improved {
			return cur
		}
	}
}

// programCandidates enumerates one-step reductions of p, most aggressive
// first. Every candidate is an independent clone.
func programCandidates(p *program) []*program {
	var out []*program

	// Drop a helper function entirely.
	for i := range p.funcs {
		c := p.clone()
		c.funcs = append(c.funcs[:i], c.funcs[i+1:]...)
		out = append(out, c)
	}
	// Drop a global (callers referencing it fail to compile and are
	// rejected by the predicate).
	for i := range p.globals {
		c := p.clone()
		c.globals = append(c.globals[:i], c.globals[i+1:]...)
		out = append(out, c)
	}
	for i := range p.rawGlobals {
		c := p.clone()
		c.rawGlobals = append(c.rawGlobals[:i], c.rawGlobals[i+1:]...)
		out = append(out, c)
	}

	// Reduce statements of the entry and of each helper.
	funcAt := func(c *program, fi int) *function {
		if fi < 0 {
			return c.entry
		}
		return c.funcs[fi]
	}
	for fi := -1; fi < len(p.funcs); fi++ {
		src := funcAt(p, fi)
		for _, body := range reduceList(src.body) {
			c := p.clone()
			funcAt(c, fi).body = body
			out = append(out, c)
		}
		// Drop a local declaration.
		for li := range src.locals {
			c := p.clone()
			f := funcAt(c, fi)
			f.locals = append(f.locals[:li], f.locals[li+1:]...)
			out = append(out, c)
		}
		// Simplify a local initializer to zero.
		for li, l := range src.locals {
			if l.init == nil {
				continue
			}
			if _, isLit := l.init.(lit); isLit {
				continue
			}
			c := p.clone()
			funcAt(c, fi).locals[li].init = lit(0)
			out = append(out, c)
		}
	}
	return out
}

// reduceList enumerates one-step reductions of a statement list: deleting a
// statement, splicing a control statement's body into its place, or
// simplifying a statement (recursively).
func reduceList(ss []stmt) [][]stmt {
	var out [][]stmt
	replace := func(i int, with ...stmt) []stmt {
		v := make([]stmt, 0, len(ss)-1+len(with))
		v = append(v, cloneStmts(ss[:i])...)
		v = append(v, with...)
		v = append(v, cloneStmts(ss[i+1:])...)
		return v
	}
	for i, s := range ss {
		out = append(out, replace(i)) // delete
		switch st := s.(type) {
		case *ifStmt:
			out = append(out, replace(i, cloneStmts(st.then)...)) // unwrap then
			if len(st.alt) > 0 {
				c := st.cloneStmt().(*ifStmt)
				c.alt = nil
				out = append(out, replace(i, c)) // drop else
			}
		case *forLoop:
			out = append(out, replace(i, cloneStmts(st.body)...))
			if st.n > 1 {
				c := st.cloneStmt().(*forLoop)
				c.n = 1
				out = append(out, replace(i, c))
			}
			for _, body := range reduceList(st.body) {
				c := st.cloneStmt().(*forLoop)
				c.body = body
				out = append(out, replace(i, c))
			}
		case *whileLoop:
			out = append(out, replace(i, cloneStmts(st.body)...))
			if st.n > 1 {
				c := st.cloneStmt().(*whileLoop)
				c.n = 1
				out = append(out, replace(i, c))
			}
			for _, body := range reduceList(st.body) {
				c := st.cloneStmt().(*whileLoop)
				c.body = body
				out = append(out, replace(i, c))
			}
		case *assign:
			if _, isLit := st.rhs.(lit); !isLit {
				c := st.cloneStmt().(*assign)
				c.rhs = lit(1)
				out = append(out, replace(i, c))
			}
		}
	}
	// Recurse into if-branches last (cheaper reductions first).
	for i, s := range ss {
		if st, ok := s.(*ifStmt); ok {
			for _, then := range reduceList(st.then) {
				c := st.cloneStmt().(*ifStmt)
				c.then = then
				out = append(out, replace(i, c))
			}
			for _, alt := range reduceList(st.alt) {
				c := st.cloneStmt().(*ifStmt)
				c.alt = alt
				out = append(out, replace(i, c))
			}
		}
	}
	return out
}

// programCase wraps a (possibly shrunk) program back into an executable
// case with tmpl's identity.
func programCase(p *program, tmpl *Case) *Case {
	return &Case{
		Name:       tmpl.Name,
		Kind:       tmpl.Kind,
		Seed:       tmpl.Seed,
		Restricted: p.restricted,
		Source:     p.render(),
		Attack:     p.attack,
		Note:       tmpl.Note,
	}
}

// shrinkFailure minimizes a failing case's program on engine e, preserving
// the failure category, and returns the minimal reproducer source.
func shrinkFailure(p *program, tmpl *Case, category string, e engine.Engine) string {
	min := shrinkProgram(p, func(cand *program) bool {
		o := execute(programCase(cand, tmpl), e)
		return !o.Pass && o.Category == category
	})
	return min.render()
}
