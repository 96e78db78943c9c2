package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NoDeprecated keeps any future compatibility wrapper from re-rooting
// itself: internal packages and cmd/ binaries must call the replacement.
// Only the wrappers themselves (which are documented Deprecated and may
// chain to each other) and equivalence tests that pin old == new
// behaviour may keep calling them, the latter under an explicit
// vet-ignore. The tree currently carries no deprecated API; the rule
// guards the next one.
//
// The check is generic rather than a hard-coded name list: any call whose
// callee's doc comment carries a standard "Deprecated:" paragraph is
// flagged when the caller lives under perdnn, perdnn/internal/..., or
// perdnn/cmd/... and is not itself deprecated. examples/ are outside the
// gate — they may demonstrate the compatibility surface.
var NoDeprecated = &Analyzer{
	Name: "nodeprecated",
	Doc:  "forbid internal and cmd code from calling Deprecated functions",
	Run:  runNoDeprecated,
}

// inDeprecatedScope reports whether a package is held to the rule.
func inDeprecatedScope(path string) bool {
	return path == facadePath ||
		strings.HasPrefix(path, facadePath+"/internal/") ||
		strings.HasPrefix(path, facadePath+"/cmd/")
}

// isDeprecatedDoc reports whether a doc comment carries a standard
// deprecation paragraph.
func isDeprecatedDoc(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		text := strings.TrimPrefix(c.Text, "//")
		text = strings.TrimPrefix(text, " ")
		if strings.HasPrefix(text, "Deprecated:") {
			return true
		}
	}
	return false
}

func runNoDeprecated(pass *Pass) error {
	if !inDeprecatedScope(pass.Pkg.Path()) {
		return nil
	}
	g := pass.Facts.Graph
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if isDeprecatedDoc(fd.Doc) {
				// Shims may chain to the functions they wrap.
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn, ok := calleeObject(pass.TypesInfo, call).(*types.Func)
				if !ok {
					return true
				}
				callee := g.Node(FuncKey(fn))
				if callee == nil || !callee.Defined() || !isDeprecatedDoc(callee.Decl.Doc) {
					return true
				}
				pass.Reportf(call.Pos(),
					"call to deprecated %s: use the replacement named in its Deprecated note",
					callee.Name())
				return true
			})
		}
	}
	return nil
}
