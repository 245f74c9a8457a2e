package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"
)

// PoolLife returns the pooled-packet lifecycle analyzer suite.
func PoolLife() []*Analyzer { return []*Analyzer{PoolLifeAnalyzer} }

// PoolLifeAnalyzer enforces the ownership rules of internal/core's
// packet pool (see pool.go) by intraprocedural dataflow over the
// variables that pooled packets flow through:
//
//   - use-after-Recycle: once a variable is recycled, any further use
//     of it on a path reaching that use is a fault — the packet may
//     already be another incarnation.  Passing a locally proven pooled
//     packet to a Send method (Host.Send, NIC.Send, Channel.Send) is the
//     same hand-off: the fabric owns it from there and may recycle it
//     before Send returns.
//   - double-Recycle: recycling the same variable twice on one path
//     hands the pool an aliased slot.
//   - retention-without-Adopt: a value drawn from a pool (pool.Clone(p),
//     pool.NewUDP(...), pool.NewTPP(...), host.NewPacketPooled(...),
//     host.NewProbePooled(...), p.ClonePooled())
//     that is stored into a long-lived structure (a field, a map or slice
//     element, an append, a channel send, a closure capture) while
//     still pool-owned can be recycled under the referent; Adopt first.
//   - recycle-after-shallow-copy: after `c := *p`, c aliases p's
//     buffers, so p must be abandoned to the GC, never recycled.
//
// The analysis is a forward may-analysis over each function body:
// branches merge by flag union, loop bodies are traversed twice so
// loop-carried states (recycle at the bottom, use at the top) are
// seen, and early exits (return, break, continue, panic) terminate
// their path so the common `if dead { pkt.Recycle(); return }` shape
// stays clean.  Like the determinism linters it relies only on locally
// inferable facts — the Recycle/Adopt/Send and pool-draw method names
// on plain identifiers — so it needs no cross-package type information.
// Sanctioned violations (e.g. the egress queue retaining fabric-owned
// packets it will recycle itself) carry //lint:allow poollife.
var PoolLifeAnalyzer = &Analyzer{
	Name: "poollife",
	Doc:  "enforce pooled-packet ownership: no use after Recycle, no double Recycle, Adopt before retaining, abandon after shallow copy",
	Run: func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				fd, ok := n.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					return true
				}
				pl := &poolLife{pass: p, seen: make(map[token.Pos]bool)}
				pl.stmts(fd.Body.List, make(poolState))
				return true // nested FuncLits are handled as captures
			})
		}
	},
}

// poolFlags is the abstract state of one variable.
type poolFlags uint8

const (
	flagPooled   poolFlags = 1 << iota // drawn from a pool, not yet adopted/recycled/sent
	flagRecycled                       // Recycle called on some path reaching here
	flagAliased                        // a shallow copy (*v) was taken
	flagSent                           // handed to a Send method while pooled
)

// poolState maps each tracked local to its flags.  States are small
// (at most a handful of packet variables per function), so copying at
// branches is cheap.
type poolState map[types.Object]poolFlags

func (s poolState) clone() poolState {
	c := make(poolState, len(s))
	for k, v := range s { //lint:allow maporder (copy; order has no effect)
		c[k] = v
	}
	return c
}

// merge unions other into s: a flag holds after a join if it held on
// any incoming path (may-analysis).
func (s poolState) merge(other poolState) {
	for k, v := range other { //lint:allow maporder (flag union; order has no effect)
		s[k] |= v
	}
}

type poolLife struct {
	pass *Pass
	// seen dedupes reports: loop bodies are analyzed twice, and a
	// second traversal must not double-report the same position.
	seen map[token.Pos]bool
}

func (pl *poolLife) report(pos token.Pos, format string, args ...any) {
	if pl.seen[pos] {
		return
	}
	pl.seen[pos] = true
	pl.pass.Report(pos, format, args...)
}

// obj resolves an expression to the object of a plain identifier, the
// only values the analysis tracks.
func (pl *poolLife) obj(e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := pl.pass.Info.Uses[id]; o != nil {
		if _, isVar := o.(*types.Var); isVar {
			return o
		}
		return nil
	}
	if o := pl.pass.Info.Defs[id]; o != nil {
		if _, isVar := o.(*types.Var); isVar {
			return o
		}
	}
	return nil
}

// stmts runs the analysis over a statement list, mutating state in
// place.  It returns true when every path through the list terminates
// (return, branch, panic), meaning state does not flow past the list.
func (pl *poolLife) stmts(list []ast.Stmt, state poolState) bool {
	for _, st := range list {
		if pl.stmt(st, state) {
			return true
		}
	}
	return false
}

// stmt analyzes one statement; the bool result reports termination.
func (pl *poolLife) stmt(st ast.Stmt, state poolState) bool {
	switch s := st.(type) {
	case *ast.ExprStmt:
		pl.expr(s.X, state)
	case *ast.AssignStmt:
		pl.assign(s, state)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					pl.expr(v, state)
				}
				for i, name := range vs.Names {
					if o := pl.obj(name); o != nil {
						if len(vs.Values) == len(vs.Names) && pl.isPoolDraw(vs.Values[i]) {
							state[o] = flagPooled
						} else {
							delete(state, o)
						}
					}
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			pl.stmt(s.Init, state)
		}
		pl.expr(s.Cond, state)
		thenState := state.clone()
		thenDone := pl.stmts(s.Body.List, thenState)
		elseState := state.clone()
		elseDone := false
		if s.Else != nil {
			elseDone = pl.stmt(s.Else, elseState)
		}
		switch {
		case thenDone && elseDone:
			return true
		case thenDone:
			replace(state, elseState)
		case elseDone:
			replace(state, thenState)
		default:
			replace(state, thenState)
			state.merge(elseState)
		}
	case *ast.BlockStmt:
		return pl.stmts(s.List, state)
	case *ast.ForStmt:
		if s.Init != nil {
			pl.stmt(s.Init, state)
		}
		if s.Cond != nil {
			pl.expr(s.Cond, state)
		}
		pl.loopBody(s.Body, s.Post, state)
	case *ast.RangeStmt:
		pl.expr(s.X, state)
		if o := pl.obj(s.Value); o != nil {
			delete(state, o) // fresh binding per iteration
		}
		pl.loopBody(s.Body, nil, state)
	case *ast.SwitchStmt:
		if s.Init != nil {
			pl.stmt(s.Init, state)
		}
		if s.Tag != nil {
			pl.expr(s.Tag, state)
		}
		pl.caseClauses(s.Body, state)
	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			pl.stmt(s.Init, state)
		}
		pl.caseClauses(s.Body, state)
	case *ast.SelectStmt:
		pl.caseClauses(s.Body, state)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			pl.expr(e, state)
		}
		return true
	case *ast.BranchStmt:
		// break/continue/goto leave the current path; the loop's
		// second traversal approximates where it lands.
		return true
	case *ast.SendStmt:
		pl.expr(s.Chan, state)
		pl.expr(s.Value, state)
		if o := pl.obj(s.Value); o != nil && state[o]&flagPooled != 0 {
			pl.report(s.Value.Pos(), "pooled packet %s sent on a channel without Adopt; the fabric may recycle it under the receiver", nameOf(s.Value))
		}
	case *ast.DeferStmt:
		pl.expr(s.Call, state)
	case *ast.GoStmt:
		pl.expr(s.Call, state)
	case *ast.LabeledStmt:
		return pl.stmt(s.Stmt, state)
	case *ast.IncDecStmt:
		pl.expr(s.X, state)
	case *ast.EmptyStmt:
	default:
		// Conservatively scan any other statement's expressions.
		ast.Inspect(st, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				pl.expr(e, state)
				return false
			}
			return true
		})
	}
	return false
}

// loopBody analyzes a loop body twice: the second pass starts from the
// state merged across the first, so loop-carried violations (recycle
// at the bottom of an iteration, use at the top of the next) surface.
// Reports are deduplicated, so the double traversal never repeats a
// finding.
func (pl *poolLife) loopBody(body *ast.BlockStmt, post ast.Stmt, state poolState) {
	first := state.clone()
	if !pl.stmts(body.List, first) && post != nil {
		pl.stmt(post, first)
	}
	state.merge(first)
	second := state.clone()
	if !pl.stmts(body.List, second) && post != nil {
		pl.stmt(post, second)
	}
	state.merge(second)
}

// caseClauses analyzes each clause of a switch/select from the entry
// state and merges the fall-out states of non-terminating clauses.
func (pl *poolLife) caseClauses(body *ast.BlockStmt, state poolState) {
	entry := state.clone()
	for _, c := range body.List {
		var list []ast.Stmt
		switch cc := c.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				pl.expr(e, entry)
			}
			list = cc.Body
		case *ast.CommClause:
			if cc.Comm != nil {
				pl.stmt(cc.Comm, entry)
			}
			list = cc.Body
		}
		cs := entry.clone()
		if !pl.stmts(list, cs) {
			state.merge(cs)
		}
	}
}

// assign applies an assignment: RHS effects first, then LHS kills,
// retention checks, and aliasing marks.
func (pl *poolLife) assign(s *ast.AssignStmt, state poolState) {
	for _, r := range s.Rhs {
		pl.expr(r, state)
	}
	oneToOne := len(s.Lhs) == len(s.Rhs)
	for i, l := range s.Lhs {
		// Retaining a still-pooled value: x.f = p, m[k] = p.
		if oneToOne {
			r := s.Rhs[i]
			if o := pl.obj(r); o != nil && state[o]&flagPooled != 0 {
				switch l.(type) {
				case *ast.SelectorExpr:
					pl.report(r.Pos(), "pooled packet %s stored into a field without Adopt; the fabric may recycle it under the referent", nameOf(r))
				case *ast.IndexExpr:
					pl.report(r.Pos(), "pooled packet %s stored into a map or slice element without Adopt; the fabric may recycle it under the referent", nameOf(r))
				}
			}
		}
		o := pl.obj(l)
		if o == nil {
			continue
		}
		// A plain-identifier LHS re-binds the variable: derive its new
		// state from the matching RHS when the assignment is 1:1.
		switch {
		case oneToOne && pl.isPoolDraw(s.Rhs[i]):
			state[o] = flagPooled
		case oneToOne && isDeref(s.Rhs[i]):
			// x = *p: x is a shallow copy; p's buffers are now aliased.
			if src := pl.derefObj(s.Rhs[i]); src != nil {
				state[src] |= flagAliased
			}
			delete(state, o)
		default:
			delete(state, o)
		}
	}
}

// expr scans one expression for lifecycle events and uses.
func (pl *poolLife) expr(e ast.Expr, state poolState) {
	if e == nil {
		return
	}
	switch x := e.(type) {
	case *ast.CallExpr:
		// Method events on plain identifiers.
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok {
			if recv := pl.obj(sel.X); recv != nil {
				switch sel.Sel.Name {
				case "Recycle":
					fl := state[recv]
					switch {
					case fl&flagSent != 0:
						pl.report(x.Pos(), "%s recycled after Send handed it to the fabric, which recycles it itself", nameOf(sel.X))
					case fl&flagRecycled != 0:
						pl.report(x.Pos(), "%s recycled twice; the second Recycle hands the pool an aliased slot", nameOf(sel.X))
					case fl&flagAliased != 0:
						pl.report(x.Pos(), "%s recycled after a shallow copy aliased its buffers; abandon the original to the GC instead", nameOf(sel.X))
					}
					state[recv] = (fl | flagRecycled) &^ flagPooled
					for _, a := range x.Args {
						pl.expr(a, state)
					}
					return
				case "Adopt":
					pl.useIdent(sel.X, state)
					state[recv] = 0
					return
				case "ClonePooled", "Clone", "Pooled", "WireLen", "PayloadLen", "Serialize":
					// Reads of the receiver: plain uses.
					pl.useIdent(sel.X, state)
					for _, a := range x.Args {
						pl.expr(a, state)
					}
					return
				}
			}
		}
		// x.Send(p) of a still-pooled p hands it to the fabric.
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Send" && len(x.Args) == 1 {
			if o := pl.obj(x.Args[0]); o != nil && state[o]&flagPooled != 0 {
				pl.expr(x.Fun, state)
				state[o] = state[o]&^flagPooled | flagSent
				return
			}
		}
		// append(s, p) retains p in a slice.
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && pl.obj(id) == nil && len(x.Args) > 1 {
			for _, a := range x.Args[1:] {
				if o := pl.obj(a); o != nil && state[o]&flagPooled != 0 {
					pl.report(a.Pos(), "pooled packet %s appended to a slice without Adopt; the fabric may recycle it under the referent", nameOf(a))
				}
			}
		}
		pl.expr(x.Fun, state)
		for _, a := range x.Args {
			pl.expr(a, state)
		}
	case *ast.FuncLit:
		// A closure capturing a tracked variable outlives the current
		// event: a still-pooled capture is a retention, and captures of
		// recycled variables are uses after death.
		ast.Inspect(x.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			if o := pl.pass.Info.Uses[id]; o != nil {
				if fl, tracked := state[o]; tracked {
					if fl&flagPooled != 0 {
						pl.report(id.Pos(), "pooled packet %s captured by a closure without Adopt; the closure may run after the fabric recycles it", id.Name)
						state[o] &^= flagPooled // one report per capture site
					}
					if fl&flagRecycled != 0 {
						pl.report(id.Pos(), "use of %s after Recycle", id.Name)
					}
				}
			}
			return true
		})
	case *ast.StarExpr:
		// *p in an expression: a shallow copy of the pointee.
		if o := pl.obj(x.X); o != nil {
			pl.useIdent(x.X, state)
			state[o] |= flagAliased
			return
		}
		pl.expr(x.X, state)
	case *ast.UnaryExpr:
		pl.expr(x.X, state)
	case *ast.BinaryExpr:
		pl.expr(x.X, state)
		pl.expr(x.Y, state)
	case *ast.ParenExpr:
		pl.expr(x.X, state)
	case *ast.SelectorExpr:
		pl.useIdent(x.X, state)
		pl.expr(x.X, state)
	case *ast.IndexExpr:
		pl.expr(x.X, state)
		pl.expr(x.Index, state)
	case *ast.SliceExpr:
		pl.expr(x.X, state)
		pl.expr(x.Low, state)
		pl.expr(x.High, state)
		pl.expr(x.Max, state)
	case *ast.TypeAssertExpr:
		pl.expr(x.X, state)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				pl.expr(kv.Value, state)
				if o := pl.obj(kv.Value); o != nil && state[o]&flagPooled != 0 {
					pl.report(kv.Value.Pos(), "pooled packet %s stored into a composite literal without Adopt; the fabric may recycle it under the referent", nameOf(kv.Value))
				}
				continue
			}
			pl.expr(el, state)
		}
	case *ast.Ident:
		pl.useIdent(x, state)
	}
}

// useIdent reports a use of a recycled or handed-off variable.
func (pl *poolLife) useIdent(e ast.Expr, state poolState) {
	id, ok := e.(*ast.Ident)
	if !ok {
		return
	}
	o := pl.obj(id)
	if o == nil {
		return
	}
	switch fl := state[o]; {
	case fl&flagRecycled != 0:
		pl.report(id.Pos(), "use of %s after Recycle", id.Name)
	case fl&flagSent != 0:
		pl.report(id.Pos(), "use of %s after Send handed it to the fabric; it may already be recycled", id.Name)
	}
}

// isPoolDraw reports whether e is a method call that draws a packet
// from a pool: pool.Clone(p) (one argument — p.Clone() is the heap
// copy), pool.NewUDP(...), pool.NewTPP(...), host.NewPacketPooled(...),
// host.NewProbePooled(...) or p.ClonePooled().  A package-qualified call
// is never a draw: core.NewTPP builds a heap TPP, not a packet.
func (pl *poolLife) isPoolDraw(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if id, ok := sel.X.(*ast.Ident); ok {
		if _, isPkg := pl.pass.Info.Uses[id].(*types.PkgName); isPkg {
			return false
		}
	}
	switch sel.Sel.Name {
	case "ClonePooled", "NewUDP", "NewTPP", "NewPacketPooled", "NewProbePooled":
		return true
	case "Clone":
		return len(call.Args) == 1
	}
	return false
}

func isDeref(e ast.Expr) bool {
	_, ok := e.(*ast.StarExpr)
	return ok
}

func (pl *poolLife) derefObj(e ast.Expr) types.Object {
	st, ok := e.(*ast.StarExpr)
	if !ok {
		return nil
	}
	return pl.obj(st.X)
}

func nameOf(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "value"
}

// replace overwrites dst's contents with src's.
func replace(dst, src poolState) {
	for k := range dst { //lint:allow maporder (set replacement; order has no effect)
		delete(dst, k)
	}
	for k, v := range src { //lint:allow maporder (set replacement; order has no effect)
		dst[k] = v
	}
}
