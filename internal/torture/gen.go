package torture

import (
	"fmt"

	"amuletiso/internal/aft"
	"amuletiso/internal/cc"
)

// Generation limits. They are tuned to the compiler's own limits: the code
// generator evaluates expressions into eight callee-saved registers and
// rejects deeper trees, so expressions stay shallow and left-leaning, and
// every loop has a literal bound so generated programs always terminate.
const (
	maxExprDepth   = 2
	maxCtrlDepth   = 2
	maxLoopBound   = 6
	maxRecurseArg  = 4
	entryStmtsMin  = 4
	entryStmtsMax  = 10
	helperStmtsMax = 4
)

// arrRef is an in-scope array usable for masked (in-bounds) accesses.
type arrRef struct {
	name string
	mask int // power-of-two-minus-one, < array length
}

// ptrRef is an in-scope pointer into the middle of an array.
type ptrRef struct {
	name string
	mask int
}

// callRef is an in-scope callable.
type callRef struct {
	name      string
	nargs     int
	recursive bool // first argument is a literal depth budget
}

// genScope is what an expression may reference at a given point.
type genScope struct {
	ints   []string
	arrays []arrRef
	ptrs   []ptrRef
	calls  []callRef
}

// caseGen builds one random program.
type caseGen struct {
	r          *rng
	restricted bool
	hosted     bool
	prog       *program

	globalScope genScope // globals + helpers, visible everywhere
	labelN      int
}

func (g *caseGen) fresh(prefix string) string {
	g.labelN++
	return fmt.Sprintf("%s%d", prefix, g.labelN)
}

// generate builds a complete well-formed program for the seed.
func generate(seed uint64, restricted, hosted bool) *program {
	g := &caseGen{
		r:          newRNG(seed),
		restricted: restricted,
		hosted:     hosted,
		prog:       &program{seed: seed, restricted: restricted, hosted: hosted},
	}
	g.genGlobals()
	g.genHelpers()
	g.genEntry(nil)
	return g.prog
}

// BuildCase deterministically derives the case of (kind, seed, restricted).
// Generation is grammar-bounded but the compiler enforces limits the grammar
// cannot see exactly (the eight-register expression budget), so the builder
// probe-compiles each candidate and walks to the next derived seed on
// rejection until one compiles — a pure function of its arguments, like
// everything else here.
func BuildCase(kind string, seed uint64, restricted bool) *Case {
	c, _ := buildCaseProg(kind, seed, restricted)
	return c
}

// buildCaseProg is BuildCase plus the underlying AST (the shrinker's input).
func buildCaseProg(kind string, seed uint64, restricted bool) (*Case, *program) {
	s := seed
	for attempt := 1; ; attempt++ {
		var p *program
		switch kind {
		case KindDifferential:
			p = generate(s, restricted, false)
		case KindAdversarial:
			p = generateAdversarial(s, restricted, false)
		case KindHosted, KindBrownout:
			p = generateAdversarial(s, false, true)
		default:
			return &Case{Kind: kind, Seed: seed}, nil
		}
		c := &Case{
			Kind:       kind,
			Seed:       seed,
			Restricted: p.restricted,
			Source:     p.render(),
			Attack:     p.attack,
		}
		// The walk is bounded only as a guard against a grammar that can no
		// longer produce compilable programs; a rejection streak is rare and
		// short (the longest known is 13 candidates).
		if probeCompile(c) == nil || attempt == maxCandidates {
			return c, p
		}
		s = newRNG(s).next() // deterministic walk to the next candidate
	}
}

// maxCandidates bounds buildCaseProg's walk over derived seeds.
const maxCandidates = 1000

// probeCompile type-checks and code-generates a candidate in its cheapest
// applicable mode.
func probeCompile(c *Case) error {
	if c.Kind == KindHosted || c.Kind == KindBrownout {
		_, err := aft.Build([]aft.AppSource{{Name: hostedAppName, Source: c.Source}}, cc.ModeNoIsolation)
		return err
	}
	mode := cc.ModeNoIsolation
	if c.Restricted {
		mode = cc.ModeFeatureLimited
	}
	_, err := cc.CompileProgram(unitName, c.Source, cc.ProgramOptions{Mode: mode})
	return err
}

// genGlobals emits 2-4 scalars (mixed int/uint/char) and 1-2 int arrays.
// Global g0 always exists as an int accumulator ("sink") so loads always
// have somewhere observable to land.
func (g *caseGen) genGlobals() {
	n := g.r.rangeInt(2, 4)
	for i := 0; i < n; i++ {
		gv := &globalVar{name: fmt.Sprintf("g%d", i), typ: "int"}
		if i > 0 {
			switch {
			case g.r.chance(1, 4):
				gv.typ = "uint"
			case g.r.chance(1, 5):
				gv.typ = "char"
			}
		}
		if g.r.chance(7, 10) {
			gv.init = []int32{int32(g.r.rangeInt(-100, 100))}
			if gv.typ != "int" && gv.init[0] < 0 {
				gv.init[0] = -gv.init[0]
			}
		}
		g.prog.globals = append(g.prog.globals, gv)
		g.globalScope.ints = append(g.globalScope.ints, gv.name)
	}
	na := g.r.rangeInt(1, 2)
	for i := 0; i < na; i++ {
		length := pick(g.r, []int{4, 8, 16})
		gv := &globalVar{name: fmt.Sprintf("arr%d", i), typ: "int", arr: length}
		ninit := g.r.intn(length + 1)
		for j := 0; j < ninit; j++ {
			gv.init = append(gv.init, int32(g.r.rangeInt(-50, 50)))
		}
		g.prog.globals = append(g.prog.globals, gv)
		g.globalScope.arrays = append(g.globalScope.arrays, arrRef{gv.name, length - 1})
	}
}

// genHelpers emits 0-3 straight-line helper functions (each may call the
// previously defined ones), and, in the full dialect, sometimes a bounded
// recursive function and a global function pointer.
func (g *caseGen) genHelpers() {
	n := g.r.intn(4)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("h%d", i)
		nargs := g.r.rangeInt(1, 2)
		fn := &function{name: name, ret: "int"}
		params := []string{"pa", "pb"}[:nargs]
		fn.params = params

		scope := genScope{
			ints:   append(append([]string{}, g.globalScope.ints...), params...),
			arrays: g.globalScope.arrays,
			calls:  g.globalScope.calls,
		}
		for j := 0; j < g.r.intn(3); j++ {
			lv := localVar{name: fmt.Sprintf("l%d", j), typ: "int", init: g.expr(1, &scope)}
			fn.locals = append(fn.locals, lv)
			scope.ints = append(scope.ints, lv.name)
		}
		fn.body = g.stmts(g.r.rangeInt(1, helperStmtsMax), 1, &scope, fn)
		fn.body = append(fn.body, &retStmt{g.expr(2, &scope)})

		g.prog.funcs = append(g.prog.funcs, fn)
		g.globalScope.calls = append(g.globalScope.calls, callRef{name, nargs, false})
	}

	if !g.restricted && g.r.chance(1, 4) {
		g.genRecursive()
	}
}

// genRecursive emits the bounded-recursion template: the depth argument is a
// literal at every outside call site and strictly decreases, so the stack
// stays within the AFT's 256-byte recursion default.
func (g *caseGen) genRecursive() {
	fn := &function{name: "rec0", ret: "int", params: []string{"d", "x"}}
	fn.body = []stmt{
		&ifStmt{
			cond: &binary{"<=", varRef("d"), lit(0)},
			then: []stmt{&retStmt{varRef("x")}},
		},
		&retStmt{&binary{"^",
			&call{"rec0", []expr{
				&binary{"-", varRef("d"), lit(1)},
				&binary{"+", varRef("x"), varRef("d")},
			}},
			lit(int32(g.r.rangeInt(1, 7)))}},
	}
	g.prog.funcs = append(g.prog.funcs, fn)
	g.globalScope.calls = append(g.globalScope.calls, callRef{"rec0", 2, true})
}

// genEntry emits the program's entry point: main() for standalone programs,
// handle_event(int, int) for kernel-hosted ones. extra, when non-nil, is
// appended after the benign body (the adversarial attack sequence).
func (g *caseGen) genEntry(extra *attack) {
	fn := &function{name: "main", ret: "int"}
	scope := genScope{
		ints:   append([]string{}, g.globalScope.ints...),
		arrays: g.globalScope.arrays,
		calls:  g.globalScope.calls,
	}
	if g.hosted {
		fn.name = "handle_event"
		fn.ret = "void"
		fn.params = []string{"ev", "arg"}
		scope.ints = append(scope.ints, "ev", "arg")
	}

	// A global function pointer, installed before any use. It enters the
	// callable scope only after the locals are generated: local initializers
	// run before the body's install statement, when fp0 is still zero.
	var fpInstall stmt
	if !g.restricted {
		if target, ok := g.pickFuncptrTarget(); ok && g.r.chance(1, 4) {
			g.prog.rawGlobals = append(g.prog.rawGlobals, "int (*fp0)(int);")
			fpInstall = &assign{varRef("fp0"), "=", varRef(target)}
		}
	}

	// Locals.
	nloc := g.r.rangeInt(2, 4)
	for j := 0; j < nloc; j++ {
		lv := localVar{name: fmt.Sprintf("v%d", j), typ: "int", init: g.expr(1, &scope)}
		fn.locals = append(fn.locals, lv)
		scope.ints = append(scope.ints, lv.name)
	}
	// A pointer into the middle of a global array (full dialect).
	if !g.restricted && len(scope.arrays) > 0 && g.r.chance(3, 10) {
		a := pick(g.r, scope.arrays)
		half := (a.mask + 1) / 2
		if half >= 2 {
			lv := localVar{name: "pt0", typ: "int *",
				init: &binary{"+", varRef(a.name), lit(int32(half))}}
			fn.locals = append(fn.locals, lv)
			scope.ptrs = append(scope.ptrs, ptrRef{"pt0", half - 1})
		}
	}

	var body []stmt
	if fpInstall != nil {
		body = append(body, fpInstall)
		scope.calls = append(scope.calls, callRef{"fp0", 1, false})
	}
	nst := g.r.rangeInt(entryStmtsMin, entryStmtsMax)
	if g.hosted {
		nst = g.r.rangeInt(2, 5)
	}
	body = append(body, g.stmts(nst, maxCtrlDepth, &scope, fn)...)
	if extra != nil {
		body = append(body, extra.emit(g, fn, &scope)...)
	}
	if !g.hosted {
		body = append(body, &retStmt{g.mixExpr(&scope)})
	}
	fn.body = body
	g.prog.entry = fn
}

// pickFuncptrTarget finds a one-argument helper for a function pointer.
func (g *caseGen) pickFuncptrTarget() (string, bool) {
	for _, c := range g.globalScope.calls {
		if c.nargs == 1 && !c.recursive {
			return c.name, true
		}
	}
	return "", false
}

// mixExpr folds every scalar in scope into one left-leaning checksum
// expression — left-leaning chains cost O(1) expression registers.
func (g *caseGen) mixExpr(s *genScope) expr {
	var e expr = lit(int32(g.r.rangeInt(0, 9)))
	for _, v := range s.ints {
		op := pick(g.r, []string{"+", "^", "-"})
		e = &binary{op, e, varRef(v)}
	}
	return e
}

// stmts emits n random statements at control-nesting depth d.
func (g *caseGen) stmts(n, d int, s *genScope, fn *function) []stmt {
	out := make([]stmt, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.stmt(d, s, fn))
	}
	return out
}

// stmt emits one random statement.
func (g *caseGen) stmt(d int, s *genScope, fn *function) stmt {
	for {
		switch g.r.intn(16) {
		case 0, 1, 2, 3, 4: // scalar assignment
			op := pick(g.r, []string{"=", "=", "+=", "-=", "^=", "&=", "|="})
			return &assign{varRef(pick(g.r, s.ints)), op, g.expr(maxExprDepth, s)}
		case 5, 6: // array store (masked, always in bounds)
			if len(s.arrays) == 0 {
				continue
			}
			a := pick(g.r, s.arrays)
			lhs := &index{a.name, a.mask, g.expr(1, s)}
			return &assign{lhs, pick(g.r, []string{"=", "+=", "^="}), g.expr(2, s)}
		case 7: // pointer store
			if len(s.ptrs) == 0 {
				continue
			}
			p := pick(g.r, s.ptrs)
			if g.r.chance(1, 3) {
				return &assign{&deref{p.name}, "=", g.expr(2, s)}
			}
			return &assign{&index{p.name, p.mask, g.expr(1, s)}, "=", g.expr(2, s)}
		case 8, 9: // increment / decrement
			return &incDec{pick(g.r, s.ints), pick(g.r, []string{"++", "--"})}
		case 10, 11: // if / if-else
			if d <= 0 {
				continue
			}
			st := &ifStmt{
				cond: g.condExpr(s),
				then: g.stmts(g.r.rangeInt(1, 3), d-1, s, fn),
			}
			if g.r.chance(2, 5) {
				st.alt = g.stmts(g.r.rangeInt(1, 2), d-1, s, fn)
			}
			return st
		case 12, 13: // for loop
			if d <= 0 {
				continue
			}
			v := g.loopVar(fn)
			return &forLoop{v, g.r.rangeInt(1, maxLoopBound),
				g.stmts(g.r.rangeInt(1, 3), d-1, s, fn)}
		case 14: // while loop
			if d <= 0 {
				continue
			}
			v := g.loopVar(fn)
			return &whileLoop{v, g.r.rangeInt(1, maxLoopBound),
				g.stmts(g.r.rangeInt(1, 2), d-1, s, fn)}
		case 15: // call for effect
			if len(s.calls) == 0 {
				continue
			}
			return &exprStmt{g.callExpr(s)}
		}
	}
}

// loopVar reserves a loop counter local for fn. Loop counters are never
// assigned by generated statements (they are not added to scope.ints), so
// loops always terminate.
func (g *caseGen) loopVar(fn *function) string {
	name := fmt.Sprintf("i%d", len(fn.locals))
	fn.locals = append(fn.locals, localVar{name: name, typ: "int"})
	return name
}

// condExpr emits a branch condition: usually a comparison, sometimes a
// logical combination of two.
func (g *caseGen) condExpr(s *genScope) expr {
	c := g.cmpExpr(s)
	if g.r.chance(1, 4) {
		return &binary{pick(g.r, []string{"&&", "||"}), c, g.cmpExpr(s)}
	}
	return c
}

func (g *caseGen) cmpExpr(s *genScope) expr {
	op := pick(g.r, []string{"==", "!=", "<", "<=", ">", ">="})
	return &binary{op, g.expr(1, s), g.expr(1, s)}
}

// expr emits a random expression with at most depth nested binaries. Trees
// lean left (the right operand is at most one level deep), which keeps the
// compiler's register usage constant.
func (g *caseGen) expr(depth int, s *genScope) expr {
	if depth <= 0 || g.r.chance(3, 10) {
		return g.leaf(s)
	}
	switch g.r.intn(10) {
	case 0: // call
		if len(s.calls) > 0 {
			return g.callExpr(s)
		}
	case 1: // unary
		return &unary{pick(g.r, []string{"-", "~", "!"}), g.expr(depth-1, s)}
	case 2: // masked array read
		if len(s.arrays) > 0 {
			a := pick(g.r, s.arrays)
			return &index{a.name, a.mask, g.expr(1, s)}
		}
	case 3: // pointer read
		if len(s.ptrs) > 0 {
			p := pick(g.r, s.ptrs)
			if g.r.chance(1, 2) {
				return &deref{p.name}
			}
			return &index{p.name, p.mask, g.expr(1, s)}
		}
	}
	// Trees lean left: the right operand stays shallow, keeping the
	// compiler's expression-register usage bounded regardless of length.
	op := g.binOp()
	l := g.expr(depth-1, s)
	var r expr
	switch op {
	case "<<", ">>":
		r = lit(int32(g.r.intn(8))) // shift counts stay literal and small
	case "/", "%":
		r = g.leaf(s) // the rendered (r | 1) guard adds a level of its own
	default:
		r = g.expr(1, s)
	}
	return &binary{op, l, r}
}

func (g *caseGen) binOp() string {
	switch g.r.intn(10) {
	case 0, 1, 2:
		return pick(g.r, []string{"+", "-"})
	case 3:
		return "*"
	case 4:
		return pick(g.r, []string{"/", "%"})
	case 5, 6:
		return pick(g.r, []string{"&", "|", "^"})
	case 7:
		return pick(g.r, []string{"<<", ">>"})
	default:
		return pick(g.r, []string{"==", "!=", "<", "<=", ">", ">="})
	}
}

// leaf emits a literal, variable or masked array read.
func (g *caseGen) leaf(s *genScope) expr {
	switch g.r.intn(10) {
	case 0, 1, 2, 3:
		if g.r.chance(1, 8) {
			return lit(int32(g.r.rangeInt(-30000, 30000)))
		}
		return lit(int32(g.r.rangeInt(-100, 100)))
	case 4: // array read with trivial index
		if len(s.arrays) > 0 {
			a := pick(g.r, s.arrays)
			return &index{a.name, a.mask, lit(int32(g.r.intn(a.mask + 1)))}
		}
	}
	return varRef(pick(g.r, s.ints))
}

// callExpr emits a call to a random in-scope callable. Recursive callees get
// a literal depth budget as their first argument.
func (g *caseGen) callExpr(s *genScope) expr {
	c := pick(g.r, s.calls)
	args := make([]expr, c.nargs)
	for i := range args {
		args[i] = g.expr(1, s)
	}
	if c.recursive {
		args[0] = lit(int32(g.r.rangeInt(1, maxRecurseArg)))
	}
	return &call{c.name, args}
}
