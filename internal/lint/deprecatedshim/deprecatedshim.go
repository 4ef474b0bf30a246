// Package deprecatedshim implements the reconlint analyzer that flags
// uses of this module's deprecated functions and types, so
// compatibility shims (like the late grid.RunScenarioArgs and
// sim.EventQueue alias) cannot quietly accrete callers while awaiting
// deletion.
//
// A symbol is deprecated when its doc comment contains a paragraph
// beginning "Deprecated:" (the standard Go convention). Same-package
// declarations are discovered from the package's own syntax; for
// cross-package uses the driver pre-scans every loaded module package
// and registers the deprecated symbols with Register/RegisterType
// before analyzers run. Standard-library deprecations are deliberately
// out of scope — this reporter polices the module's own migration debt.
//
// Uses inside deprecated declarations are exempt: a deprecated alias
// may mention the shim it forwards to, and one shim may be implemented
// in terms of another, without tripping the reporter.
package deprecatedshim

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
)

// Analyzer is the deprecated-shim analyzer.
var Analyzer = &analysis.Analyzer{
	Name: "deprecatedshim",
	Doc:  "flag uses of the module's own deprecated functions and types; migrate callers instead of accreting new ones",
	Run:  run,
}

// registry maps types.Func.FullName() of known-deprecated module
// functions to the first line of their deprecation note; typeRegistry
// does the same for type names, keyed "pkgpath.TypeName".
var (
	registry     = map[string]string{}
	typeRegistry = map[string]string{}
)

// Register records a deprecated function by its types.Func.FullName()
// (e.g. "repro/internal/grid.RunScenarioArgs"). The driver calls this
// during its pre-scan; tests may call it directly.
func Register(fullName, note string) { registry[fullName] = note }

// RegisterType records a deprecated type by "pkgpath.TypeName"
// (e.g. "repro/internal/sim.EventQueue").
func RegisterType(fullName, note string) { typeRegistry[fullName] = note }

// Reset clears both registries (test isolation).
func Reset() {
	registry = map[string]string{}
	typeRegistry = map[string]string{}
}

// DeprecationNote returns the first line of the "Deprecated:" paragraph
// in a doc comment, or "" when the doc carries none.
func DeprecationNote(doc *ast.CommentGroup) string {
	if doc == nil {
		return ""
	}
	for _, line := range strings.Split(doc.Text(), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "Deprecated:") {
			return strings.TrimSpace(strings.TrimPrefix(line, "Deprecated:"))
		}
	}
	return ""
}

// TypeSpecNote returns the deprecation note for one type spec inside a
// declaration: the spec's own doc wins, then a single-spec declaration
// inherits the GenDecl doc.
func TypeSpecNote(decl *ast.GenDecl, spec *ast.TypeSpec) string {
	if note := DeprecationNote(spec.Doc); note != "" {
		return note
	}
	if len(decl.Specs) == 1 {
		return DeprecationNote(decl.Doc)
	}
	return ""
}

// typeFullName renders a *types.TypeName as "pkgpath.Name", matching
// types.Func.FullName() for package-level symbols.
func typeFullName(tn *types.TypeName) string {
	if tn.Pkg() == nil {
		return tn.Name()
	}
	return tn.Pkg().Path() + "." + tn.Name()
}

// span is a source range whose contents are exempt from reporting.
type span struct{ lo, hi token.Pos }

func run(pass *analysis.Pass) (interface{}, error) {
	// Same-package deprecated declarations, and their spans so a
	// deprecated body or alias RHS is not itself flagged.
	localFuncs := map[string]string{}
	localTypes := map[string]string{}
	var exempt []span
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if note := DeprecationNote(d.Doc); note != "" {
					if obj, ok := pass.TypesInfo.Defs[d.Name].(interface{ FullName() string }); ok {
						localFuncs[obj.FullName()] = note
					}
					exempt = append(exempt, span{d.Pos(), d.End()})
				}
			case *ast.GenDecl:
				if d.Tok != token.TYPE {
					continue
				}
				for _, s := range d.Specs {
					ts, ok := s.(*ast.TypeSpec)
					if !ok {
						continue
					}
					if note := TypeSpecNote(d, ts); note != "" {
						if tn, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName); ok {
							localTypes[typeFullName(tn)] = note
						}
						exempt = append(exempt, span{ts.Pos(), ts.End()})
					}
				}
			}
		}
	}
	exempted := func(pos token.Pos) bool {
		for _, s := range exempt {
			if pos >= s.lo && pos < s.hi {
				return true
			}
		}
		return false
	}

	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				fn := pass.FuncOf(n)
				if fn == nil || exempted(n.Pos()) {
					return true
				}
				full := fn.FullName()
				note, dep := localFuncs[full]
				if !dep {
					note, dep = registry[full]
				}
				if dep {
					msg := "call to deprecated " + full
					if note != "" {
						msg += ": " + note
					}
					pass.Reportf(n.Pos(), "%s", msg)
				}
			case *ast.Ident:
				tn, ok := pass.TypesInfo.Uses[n].(*types.TypeName)
				if !ok || exempted(n.Pos()) {
					return true
				}
				full := typeFullName(tn)
				note, dep := localTypes[full]
				if !dep {
					note, dep = typeRegistry[full]
				}
				if dep {
					msg := "use of deprecated type " + full
					if note != "" {
						msg += ": " + note
					}
					pass.Reportf(n.Pos(), "%s", msg)
				}
			}
			return true
		})
	}
	return nil, nil
}
