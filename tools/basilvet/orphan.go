package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
)

// internalRoot returns the directory Go lets import pkg — the parent of
// the innermost internal directory on its path — or "" for a package
// outside any internal/ directory.
func internalRoot(pkg *Package) string {
	full := "/" + pkg.Pkg.Path() + "/"
	at := strings.LastIndex(full, "/internal/")
	if at < 0 {
		return ""
	}
	root := pkg.Dir
	for range strings.Count(full[at:], "/") - 1 {
		root = filepath.Dir(root)
	}
	return root
}

// orphanPackage (BV009) reports an internal/ package that no non-test Go
// file imports: code kept alive only by its own tests. Go lets only the
// tree rooted at the internal directory's parent import such a package,
// so that tree is the whole search space.
func orphanPackage(pkg *Package) []Finding {
	root := internalRoot(pkg)
	if root == "" || importsUnder(root)[pkg.Pkg.Path()] {
		return nil
	}
	return []Finding{finding(pkg, "BV009", pkg.Files[0].Name,
		"package %s has no non-test importer: delete it, or fold it into its only user", pkg.Pkg.Path())}
}

// stdlibMethods are method names stdlib interfaces call by convention;
// an implementation need not be named anywhere in the tree.
var stdlibMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true, "Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true, "Unwrap": true,
}

// unreferencedExport (BV010) reports an exported func or method of an
// internal/ package whose name appears as an identifier nowhere under the
// tree Go lets import it — test files and nested modules included. A
// method named in some interface type, or after a stdlib interface
// method, is exempt: it may be called through the interface alone.
func unreferencedExport(pkg *Package) []Finding {
	root := internalRoot(pkg)
	if root == "" {
		return nil
	}
	names := namesUnder(root)
	var findings []Finding
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || names.refs[fd.Name.Name] {
				continue
			}
			if fd.Recv != nil && (names.iface[fd.Name.Name] || stdlibMethods[fd.Name.Name]) {
				continue
			}
			findings = append(findings, finding(pkg, "BV010", fd.Name,
				"%s is referenced nowhere in the tree: delete it", fd.Name.Name))
		}
	}
	return findings
}

// treeNames is the identifier census of one tree.
type treeNames struct {
	refs  map[string]bool // identifiers, declared func and interface method names excluded
	iface map[string]bool // method names declared in interface types
}

// namesCache memoizes namesUnder per root: every internal package of a
// module shares one census.
var namesCache = map[string]*treeNames{}

// namesUnder parses every Go file under root, tests included.
func namesUnder(root string) *treeNames {
	if n := namesCache[root]; n != nil {
		return n
	}
	n := &treeNames{refs: make(map[string]bool), iface: make(map[string]bool)}
	fset := token.NewFileSet()
	goFilesUnder(root, func(p string) {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return
		}
		decl := make(map[*ast.Ident]bool)
		ast.Inspect(f, func(x ast.Node) bool {
			switch x := x.(type) {
			case *ast.FuncDecl:
				decl[x.Name] = true
			case *ast.InterfaceType:
				for _, m := range x.Methods.List {
					for _, id := range m.Names {
						decl[id] = true
						n.iface[id.Name] = true
					}
				}
			case *ast.Ident:
				if !decl[x] {
					n.refs[x.Name] = true
				}
			}
			return true
		})
	})
	namesCache[root] = n
	return n
}

// importsUnder returns the set of import paths named by the non-test Go
// files under root.
func importsUnder(root string) map[string]bool {
	set := make(map[string]bool)
	fset := token.NewFileSet()
	goFilesUnder(root, func(p string) {
		if strings.HasSuffix(p, "_test.go") {
			return
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if err != nil {
			return
		}
		for _, imp := range f.Imports {
			if ip, uerr := strconv.Unquote(imp.Path.Value); uerr == nil {
				set[ip] = true
			}
		}
	})
	return set
}

// goFilesUnder calls fn on every Go file under root, skipping testdata
// and hidden directories like the package walk does. Unparsable files are
// the callers' to skip: the type checker reports them.
func goFilesUnder(root string, fn func(path string)) {
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable subtree holds no reference the build sees either
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") {
			fn(p)
		}
		return nil
	})
}
