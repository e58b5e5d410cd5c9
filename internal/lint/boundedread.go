package lint

import (
	"go/ast"
	"go/types"
	"regexp"
)

// BoundedReadAnalyzer enforces the bounded-read discipline on the wire
// path: bytes arriving from a network connection or file must pass
// through a size cap before anything consumes them wholesale.
var BoundedReadAnalyzer = &Analyzer{
	Name: "boundedread",
	Doc: `boundedread: readers rooted in a conn, listener or file must be
capped before consumption.

The paper's scalability argument is an O(m) bound on what crosses each
edge of the monitoring tree; MaxReportBytes and the codecs' length
checks are how this port keeps that bound real. An uncapped io.ReadAll,
Parse/ParseStream/ReadReport (the parser works on the whole document in
memory, so reading a report is reading all of it) or ReadString on a raw
conn lets one hostile or buggy source grow the daemon's memory without
limit. In the codec and
poll/serve/viewer packages (internal/xdr, internal/gxml,
internal/gmetad, internal/webfront), any consumption of a reader that
traces back to a Dial/Accept/Open result or net-typed value must pass
through io.LimitReader or a cap-named wrapper (cappedReader,
MaxReportBytes-style). Readers received as named-function parameters
are the caller's responsibility.`,
	Fix: `Wrap the source with io.LimitReader(r, max) or a cap-enforcing
reader before consuming it, or annotate a deliberate unbounded read
with //lint:allow boundedread <reason>.`,
	Run: runBoundedRead,
}

// boundedReadScope is where the discipline applies inside this module.
var boundedReadScope = []string{
	"ganglia/internal/fabric",
	"ganglia/internal/xdr",
	"ganglia/internal/gxml",
	"ganglia/internal/gmetad",
	"ganglia/internal/webfront",
	"ganglia/internal/stream",
}

// cappedName matches functions and types that impose a size cap.
var cappedName = regexp.MustCompile(`(?i)^&?(io\.)?(limit|cap|bound|max)`)

// readerOrigin classifies where a reader expression's bytes come from.
type readerOrigin int

const (
	originNeutral readerOrigin = iota // unknown or caller-bounded
	originSource                      // raw conn/listener/file, uncapped
	originCapped                      // passed through a size cap
)

func runBoundedRead(pass *Pass) {
	if !inScope(pass.Pkg.Path, boundedReadScope) {
		return
	}
	for _, file := range pass.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkReads(pass, fn)
			return false
		})
	}
}

// checkReads flags unbounded consumption calls in one function.
func checkReads(pass *Pass, fn *ast.FuncDecl) {
	tr := &tracer{pass: pass, fn: fn}
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		arg, what, ok := consumptionArg(pass, call)
		if !ok {
			return true
		}
		if tr.trace(arg, 0) == originSource {
			pass.Reportf(call.Pos(),
				"%s consumes a reader rooted in a raw conn/file with no size cap; wrap it with io.LimitReader or a capped reader", what)
		}
		return true
	})
}

// consumptionArg recognizes calls that drain a reader wholesale and
// returns the reader expression to trace.
func consumptionArg(pass *Pass, call *ast.CallExpr) (ast.Expr, string, bool) {
	info := pass.Pkg.Info
	if _, ok := pkgFuncCall(info, call, "io", "ReadAll"); ok && len(call.Args) == 1 {
		return call.Args[0], "io.ReadAll", true
	}
	if _, ok := pkgFuncCall(info, call, "io", "Copy"); ok && len(call.Args) == 2 {
		return call.Args[1], "io.Copy", true
	}
	// gxml.Parse / gxml.ParseStream / gxml.ReadReport, qualified or
	// package-local: each reads its reader to EOF into memory.
	if f := calleeFunc(info, call); f != nil && f.Pkg() != nil {
		if f.Pkg().Path() == "ganglia/internal/gxml" && (f.Name() == "Parse" || f.Name() == "ParseStream" || f.Name() == "ReadReport") && len(call.Args) >= 1 {
			return call.Args[0], "gxml." + f.Name(), true
		}
	}
	// Accumulating bufio reads: ReadString/ReadBytes grow until the
	// delimiter arrives, so an unbounded underlying reader is an
	// unbounded allocation.
	if recv, name, ok := selectorCall(info, call); ok && (name == "ReadString" || name == "ReadBytes") {
		return recv, "." + name, true
	}
	return nil, "", false
}

// tracer resolves a reader expression to its origin, following simple
// intra-function assignments and wrapper construction.
type tracer struct {
	pass    *Pass
	fn      *ast.FuncDecl
	tracing map[types.Object]bool
}

func (tr *tracer) trace(e ast.Expr, depth int) readerOrigin {
	if depth > 20 || e == nil {
		return originNeutral
	}
	info := tr.pass.Pkg.Info
	e = ast.Unparen(e)

	// A value whose static type comes from package net (Conn, Listener,
	// TCPConn, ...) or is an *os.File is always a raw source, wherever
	// it appears.
	if t := info.Types[e].Type; t != nil && isRawSourceType(t) {
		return originSource
	}

	switch e := e.(type) {
	case *ast.CallExpr:
		if _, ok := pkgFuncCall(info, e, "io", "LimitReader"); ok {
			return originCapped
		}
		if name, ok := pkgFuncCall(info, e, "bufio", "NewReader", "NewReaderSize", "NewScanner"); ok && name != "" && len(e.Args) >= 1 {
			return tr.trace(e.Args[0], depth+1)
		}
		if cappedName.MatchString(exprString(e.Fun)) {
			return originCapped
		}
		// Otherwise classify by result type (covers Dial/Accept/Open
		// via the net/os check above, since their results are typed).
		return originNeutral
	case *ast.UnaryExpr:
		return tr.trace(e.X, depth+1)
	case *ast.CompositeLit:
		if tname := compositeTypeName(e); cappedName.MatchString(tname) {
			return originCapped
		}
		// A wrapper literal forwards its field readers' origin.
		origin := originNeutral
		for _, elt := range e.Elts {
			val := elt
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				val = kv.Value
			}
			switch tr.trace(val, depth+1) {
			case originCapped:
				return originCapped
			case originSource:
				origin = originSource
			}
		}
		return origin
	case *ast.Ident:
		obj := info.Uses[e]
		if obj == nil {
			obj = info.Defs[e]
		}
		v, ok := obj.(*types.Var)
		if !ok {
			return originNeutral
		}
		if tr.isDeclParam(v) {
			// Parameters of named functions are the caller's contract;
			// every call site is checked in its own function.
			return originNeutral
		}
		if tr.tracing == nil {
			tr.tracing = map[types.Object]bool{}
		}
		if tr.tracing[v] {
			return originNeutral
		}
		tr.tracing[v] = true
		defer delete(tr.tracing, v)
		// Union over every assignment to the variable in this function:
		// a cap on any path is accepted (flow-insensitive by design).
		origin := originNeutral
		for _, rhs := range tr.assignments(v) {
			switch tr.trace(rhs, depth+1) {
			case originCapped:
				return originCapped
			case originSource:
				origin = originSource
			}
		}
		return origin
	}
	return originNeutral
}

// isDeclParam reports whether v is a parameter of the enclosing named
// function (not of a nested literal).
func (tr *tracer) isDeclParam(v *types.Var) bool {
	if tr.fn.Type.Params == nil {
		return false
	}
	for _, field := range tr.fn.Type.Params.List {
		for _, name := range field.Names {
			if tr.pass.Pkg.Info.Defs[name] == v {
				return true
			}
		}
	}
	return false
}

// assignments collects every expression assigned to v in the function.
func (tr *tracer) assignments(v *types.Var) []ast.Expr {
	info := tr.pass.Pkg.Info
	var out []ast.Expr
	ast.Inspect(tr.fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := info.Defs[id]
			if obj == nil {
				obj = info.Uses[id]
			}
			if obj == v {
				out = append(out, as.Rhs[i])
			}
		}
		return true
	})
	return out
}

// compositeTypeName extracts the type name of a composite literal.
func compositeTypeName(e *ast.CompositeLit) string {
	switch t := e.Type.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return t.Sel.Name
	case *ast.StarExpr:
		return exprString(t.X)
	}
	return ""
}

// isRawSourceType reports whether t is a type whose bytes come straight
// off the wire or disk: anything named in package net, or *os.File.
func isRawSourceType(t types.Type) bool {
	return typeFromPkg(t, "net") || typeIs(t, "os", "File")
}
