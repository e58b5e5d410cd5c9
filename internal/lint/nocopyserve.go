package lint

import (
	"go/ast"
	"path/filepath"
)

// nocopyserveScope lists the module packages the rule governs: the
// serve pipeline lives in gmetad. External packages (the analyzer's
// own testdata) are always in scope.
var nocopyserveScope = []string{"ganglia/internal/gmetad"}

// nocopyserveHelpers are the same-package deep-copy helpers the retired
// DOM pipeline was built from. They survive in reference.go as the
// equivalence oracle; calling them anywhere else reintroduces the
// per-query copy the zero-copy refactor deleted.
var nocopyserveHelpers = map[string]bool{
	"agedCluster":     true,
	"agedHost":        true,
	"agedGrid":        true,
	"ReferenceReport": true,
}

// NoCopyServeAnalyzer keeps the serve path zero-copy.
var NoCopyServeAnalyzer = &Analyzer{
	Name: "nocopyserve",
	Doc: `nocopyserve: serve-path code must not deep-copy snapshots or build
throwaway gxml.Report DOMs for non-history queries.

The serve pipeline answers queries by splicing immutable, pre-rendered
fragments under a pooled header — O(bytes written), zero copies of the
monitored state. The retired design instead deep-copied the selected
subtree (agedCluster/agedHost/agedGrid) into a fresh gxml.Report and
serialized it, an O(hosts × metrics) allocation storm per query that
the paper's §2.3 "decouple queries from collection" goal exists to
avoid. Those helpers and the DOM builders survive only in reference.go,
as the oracle the streaming renderer is proven byte-identical against.
This rule flags, in serve-path packages outside reference.go: calls to
the deep-copy helpers or ReferenceReport, composite literals of
gxml.Report, and calls to gxml.RenderReport / WriteReport. History answers are the deliberate exception —
they read the mutable archive pool, so the DOM path is their contract —
and carry reasoned allow directives.`,
	Fix: `Render through the fragment splice (renderBody/writeAnswer) or, for
a genuinely new query shape, extend the streaming renderer in
render.go. If the DOM path is truly required (history answers, public
Report API), annotate the call with
//lint:allow nocopyserve <reason>.`,
	Run: runNoCopyServe,
}

func runNoCopyServe(pass *Pass) {
	if !inScope(pass.Pkg.Path, nocopyserveScope) {
		return
	}
	for _, file := range pass.Pkg.Files {
		name := filepath.Base(pass.Pkg.Fset.Position(file.Pos()).Filename)
		if name == "reference.go" {
			// The oracle is the one place the DOM pipeline belongs.
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNoCopyCall(pass, n)
			case *ast.CompositeLit:
				if tv, ok := pass.Pkg.Info.Types[ast.Expr(n)]; ok &&
					typeIs(tv.Type, "ganglia/internal/gxml", "Report") {
					pass.Reportf(n.Pos(),
						"serve-path code builds a throwaway gxml.Report DOM; render through the fragment splice instead (reference.go holds the oracle)")
				}
			}
			return true
		})
	}
}

func checkNoCopyCall(pass *Pass, call *ast.CallExpr) {
	info := pass.Pkg.Info
	if name, ok := pkgFuncCall(info, call, "ganglia/internal/gxml",
		"RenderReport", "WriteReport"); ok {
		pass.Reportf(call.Pos(),
			"serve-path code serializes a DOM via gxml.%s; responses must splice cached fragments (writeAnswer), not render trees per query", name)
		return
	}
	f := calleeFunc(info, call)
	if f == nil || f.Pkg() == nil || f.Pkg() != pass.Pkg.Types {
		return
	}
	if nocopyserveHelpers[f.Name()] {
		pass.Reportf(call.Pos(),
			"serve-path code calls the deep-copy helper %s; aged values are baked into published snapshots, copy nothing at query time", f.Name())
	}
}
