package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
)

// orphanPackage (BV009) reports an internal/ package that no non-test Go
// file imports: code kept alive only by its own tests. Go lets only the
// tree rooted at the internal directory's parent import such a package,
// so that tree is the whole search space.
func orphanPackage(pkg *Package) []Finding {
	path := pkg.Pkg.Path()
	full := "/" + path + "/"
	at := strings.LastIndex(full, "/internal/")
	if at < 0 {
		return nil
	}
	root := pkg.Dir
	for range strings.Count(full[at:], "/") - 1 {
		root = filepath.Dir(root)
	}
	if importsUnder(root)[path] {
		return nil
	}
	return []Finding{finding(pkg, "BV009", pkg.Files[0].Name,
		"package %s has no non-test importer: delete it, or fold it into its only user", path)}
}

// importsUnder returns the set of import paths named by the non-test Go
// files under root, skipping testdata and hidden directories like the
// package walk does. Unparsable files are skipped: the type checker
// reports them.
func importsUnder(root string) map[string]bool {
	set := make(map[string]bool)
	fset := token.NewFileSet()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable subtree holds no importer the build sees either
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (n == "testdata" || strings.HasPrefix(n, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(fset, p, nil, parser.ImportsOnly)
		if perr != nil {
			return nil
		}
		for _, imp := range f.Imports {
			if ip, uerr := strconv.Unquote(imp.Path.Value); uerr == nil {
				set[ip] = true
			}
		}
		return nil
	})
	return set
}
