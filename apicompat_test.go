package repro_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"sort"
	"strings"
	"testing"
)

var updateBaseline = flag.Bool("update", false, "rewrite api_baseline.txt from the current exported surface")

// TestAPICompatibility is the API gate: the exported surface of package
// repro must match the checked-in api_baseline.txt declaration for
// declaration. A mismatch means the public API changed shape; if the change
// is intentional, regenerate with
//
//	go test . -run TestAPICompatibility -update
//
// and review the baseline diff like any other API review. CI runs this test
// on every push, so an accidental signature change, which breaks existing
// callers, fails the build.
func TestAPICompatibility(t *testing.T) {
	got := exportedSurface(t)
	const baseline = "api_baseline.txt"
	if *updateBaseline {
		if err := os.WriteFile(baseline, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d declarations)", baseline, strings.Count(got, "\n"))
		return
	}
	want, err := os.ReadFile(baseline)
	if err != nil {
		t.Fatalf("missing %s (regenerate with -update): %v", baseline, err)
	}
	if string(want) == got {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	gotLines := strings.Split(got, "\n")
	wantSet := map[string]bool{}
	gotSet := map[string]bool{}
	for _, l := range wantLines {
		wantSet[l] = true
	}
	for _, l := range gotLines {
		gotSet[l] = true
	}
	for _, l := range wantLines {
		if l != "" && !gotSet[l] {
			t.Errorf("removed/changed: %s", l)
		}
	}
	for _, l := range gotLines {
		if l != "" && !wantSet[l] {
			t.Errorf("added/changed: %s", l)
		}
	}
	t.Error("exported API differs from api_baseline.txt; if intentional, run: go test . -run TestAPICompatibility -update")
}

// exportedSurface renders every exported top-level declaration of the root
// package as one normalized line: funcs with full signatures (bodies and
// docs stripped), types with their full spec (struct fields included —
// field additions are API changes too), consts and vars with names.
func exportedSurface(t *testing.T) string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	pkg, ok := pkgs["repro"]
	if !ok {
		t.Fatalf("package repro not found in %v", pkgs)
	}

	var lines []string
	emit := func(node any) {
		var buf bytes.Buffer
		if err := printer.Fprint(&buf, fset, node); err != nil {
			t.Fatal(err)
		}
		// One line per declaration: collapse internal whitespace so gofmt
		// reflows don't read as API changes.
		s := strings.Join(strings.Fields(buf.String()), " ")
		lines = append(lines, s)
	}

	fileNames := make([]string, 0, len(pkg.Files))
	for name := range pkg.Files {
		fileNames = append(fileNames, name)
	}
	sort.Strings(fileNames)
	for _, name := range fileNames {
		f := pkg.Files[name]
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil || !d.Name.IsExported() {
					continue // facade methods live on internal types
				}
				d.Body = nil
				d.Doc = nil
				emit(d)
			case *ast.GenDecl:
				d.Doc = nil
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if !sp.Name.IsExported() {
							continue
						}
						sp.Doc, sp.Comment = nil, nil
						stripFieldDocs(sp.Type)
						emit(&ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{sp}})
					case *ast.ValueSpec:
						sp.Doc, sp.Comment = nil, nil
						for _, n := range sp.Names {
							if n.IsExported() {
								emit(&ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{sp}})
								break
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(lines)
	return fmt.Sprintf("// Exported API of package repro. Regenerate: go test . -run TestAPICompatibility -update\n%s\n",
		strings.Join(lines, "\n"))
}

// stripFieldDocs removes doc comments from struct fields and interface
// methods so only the shape is pinned.
func stripFieldDocs(expr ast.Expr) {
	switch e := expr.(type) {
	case *ast.StructType:
		for _, f := range e.Fields.List {
			f.Doc, f.Comment = nil, nil
		}
	case *ast.InterfaceType:
		for _, f := range e.Methods.List {
			f.Doc, f.Comment = nil, nil
		}
	}
}
