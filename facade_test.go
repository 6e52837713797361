package countingnet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestFacadeExportsAreUsed keeps the facade to what a caller uses: every
// name countingnet.go and serve.go export must be named by a program
// under examples/ or cmd/, by another root test, or by a fenced Go block
// in README.md or EXPERIMENTS.md. A name only internal/ code needs stays
// in its internal package.
func TestFacadeExportsAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	var exported []string
	for _, name := range []string{"countingnet.go", "serve.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gen.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					exported = append(exported, s.Name.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						exported = append(exported, id.Name)
					}
				}
			}
		}
	}

	used := map[string]bool{}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			facadeSelectors(f, used)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range tests {
		if path == "facade_test.go" {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		if f.Name.Name == "countingnet" {
			// Inside the package the facade's names are bare identifiers.
			sels := map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					sels[sel.Sel] = true
				}
				if id, ok := n.(*ast.Ident); ok && !sels[id] {
					used[id.Name] = true
				}
				return true
			})
		} else {
			facadeSelectors(f, used)
		}
	}

	fence := regexp.MustCompile("(?s)```go\n(.*?)```")
	ref := regexp.MustCompile(`\bcountingnet\.([A-Z]\w*)`)
	for _, doc := range []string{"README.md", "EXPERIMENTS.md"} {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, block := range fence.FindAllSubmatch(b, -1) {
			for _, m := range ref.FindAllSubmatch(block[1], -1) {
				used[string(m[1])] = true
			}
		}
	}

	var unused []string
	for _, name := range exported {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("%d facade exports have no caller in examples/, cmd/, the root tests or README/EXPERIMENTS Go blocks; delete them or keep them internal:\n%s",
			len(unused), strings.Join(unused, "\n"))
	}
}

// facadeSelectors records every name f selects from its import of the
// root package ("repro"), under whatever local name it gives that import.
func facadeSelectors(f *ast.File, used map[string]bool) {
	for _, imp := range f.Imports {
		if imp.Path.Value != `"repro"` {
			continue
		}
		local := "countingnet"
		if imp.Name != nil {
			local = imp.Name.Name
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == local {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
}
