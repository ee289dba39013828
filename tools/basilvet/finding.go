package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// Finding is one reported invariant violation.
type Finding struct {
	Code string `json:"code"` // BV000..BV010
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	Msg  string `json:"msg"`
}

// nolintInfo records one //nolint:basilvet comment.
type nolintInfo struct {
	line      int
	justified bool
	pos       token.Position
}

// suppressions collects the nolint comments of one package, keyed by file
// path then line. A suppression on line N covers findings on N and N+1
// (comment-above style), mirroring the convention of other linters.
type suppressions map[string]map[int]nolintInfo

const nolintMarker = "nolint:basilvet"

// collectSuppressions scans comments for nolint markers. The justification
// is whatever free text follows the marker (after an optional dash); it is
// mandatory, and its absence is itself a finding (BV000) — an unexplained
// suppression is indistinguishable from a silenced bug.
func collectSuppressions(pkg *Package) (suppressions, []Finding) {
	sup := make(suppressions)
	var findings []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, nolintMarker)
				if idx < 0 {
					continue
				}
				rest := c.Text[idx+len(nolintMarker):]
				rest = strings.TrimLeft(rest, " \t—:-–")
				pos := pkg.Fset.Position(c.Pos())
				info := nolintInfo{line: pos.Line, justified: strings.TrimSpace(rest) != "", pos: pos}
				file := relPath(pos.Filename)
				if sup[file] == nil {
					sup[file] = make(map[int]nolintInfo)
				}
				sup[file][pos.Line] = info
				if !info.justified {
					findings = append(findings, Finding{
						Code: "BV000", File: file, Line: pos.Line, Col: pos.Column,
						Msg: "nolint:basilvet without a justification — add the reason after the marker (bare nolint suppresses nothing)",
					})
				}
			}
		}
	}
	return sup, findings
}

// suppressed reports whether a finding at pos is covered by a justified
// nolint on the same line or the line above.
func (s suppressions) suppressed(file string, line int) bool {
	m := s[file]
	if m == nil {
		return false
	}
	if info, ok := m[line]; ok && info.justified {
		return true
	}
	if info, ok := m[line-1]; ok && info.justified {
		return true
	}
	return false
}

// relPath trims the working directory off absolute positions so output is
// stable across machines (and matches what fixtures expect).
func relPath(p string) string {
	if wd, err := filepath.Abs("."); err == nil {
		if rel, rerr := filepath.Rel(wd, p); rerr == nil && !strings.HasPrefix(rel, "..") {
			return rel
		}
	}
	return p
}

// pass is one analysis over a type-checked package.
type pass func(*Package) []Finding

var passes = []pass{
	lockDiscipline,       // BV001
	logBeforeExternal,    // BV002
	errorHygiene,         // BV003
	goroutineHygiene,     // BV004
	metricsTax,           // BV005
	metricDefinitionSite, // BV006
	unboundedIntake,      // BV007
	adminHandlerLocks,    // BV008
	orphanPackage,        // BV009
	unreferencedExport,   // BV010
}

// analyze runs every pass on pkg and filters results through its
// suppressions.
func analyze(pkg *Package) []Finding {
	sup, findings := collectSuppressions(pkg)
	for _, p := range passes {
		for _, f := range p(pkg) {
			if sup.suppressed(f.File, f.Line) {
				continue
			}
			findings = append(findings, f)
		}
	}
	return findings
}

// finding builds a Finding at an AST node.
func finding(pkg *Package, code string, at ast.Node, format string, args ...any) Finding {
	pos := pkg.Fset.Position(at.Pos())
	return Finding{
		Code: code, File: relPath(pos.Filename), Line: pos.Line, Col: pos.Column,
		Msg: fmt.Sprintf(format, args...),
	}
}

// --- shared helpers used by several passes ---

// funcName returns a readable name for a FuncDecl (with receiver type).
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.IndexExpr:
			t = x.X
			continue
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

// typePkgAndName resolves an expression's type to (package name, type
// name), dereferencing pointers. Identity is by name rather than
// types.Object because the module importer may check a dependency under
// more than one path in fixture runs.
func typePkgAndName(pkg *Package, e ast.Expr) (string, string) {
	tv, ok := pkg.Info.Types[e]
	if !ok {
		return "", ""
	}
	return namedOf(tv.Type)
}

func namedOf(t types.Type) (string, string) {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Name(), obj.Name()
}

// calleePkgName returns the defining package name of the function being
// called (empty for builtins and locals without a package).
func calleePkgName(pkg *Package, call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fn]; ok {
			if f := sel.Obj(); f != nil && f.Pkg() != nil {
				return f.Pkg().Name()
			}
			return ""
		}
		// Package-qualified call: pkgident.Func(...)
		if id, ok := fn.X.(*ast.Ident); ok {
			if obj, ok := pkg.Info.Uses[id]; ok {
				if pn, ok := obj.(*types.PkgName); ok {
					return pn.Imported().Name()
				}
			}
		}
		if obj, ok := pkg.Info.Uses[fn.Sel]; ok && obj.Pkg() != nil {
			return obj.Pkg().Name()
		}
	case *ast.Ident:
		if obj, ok := pkg.Info.Uses[fn]; ok && obj.Pkg() != nil {
			return obj.Pkg().Name()
		}
	}
	return ""
}

// calleeName returns the bare name of the called function/method.
func calleeName(call *ast.CallExpr) string {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.Ident:
		return fn.Name
	}
	return ""
}
