package offnetrisk

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
)

// listedPackage is the part of `go list -json` output the map-order check
// reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
}

// TestNoMapOrderFloatSums fails on every float `+=` or `-=` inside a range
// over a map, in the module's non-test code, whose target outlives the
// iteration. Go randomizes map iteration order and float addition does not
// associate, so such a sum can differ in its last bits from run to run —
// the byte-identical determinism contract forbids it. Sum in a fixed key
// order instead. Each package is type-checked from source against the
// compiler's export data of its imports, which `go list -export` provides.
func TestNoMapOrderFloatSums(t *testing.T) {
	out, err := exec.Command("go", "list", "-export", "-deps", "-json", "offnetrisk/...").Output()
	if err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			t.Fatalf("go list: %v\n%s", err, exit.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	var pkgs []listedPackage
	exports := make(map[string]string)
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode go list output: %v", err)
		}
		exports[p.ImportPath] = p.Export
		if p.Module != nil && p.Module.Path == "offnetrisk" {
			pkgs = append(pkgs, p)
		}
	}
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(exports[path])
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", lookup)}
	for _, p := range pkgs {
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Types: make(map[ast.Expr]types.TypeAndValue),
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
		}
		if _, err := conf.Check(p.ImportPath, fset, files, info); err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		for _, f := range files {
			for _, pos := range mapOrderFloatSums(f, info) {
				at := fset.Position(pos)
				rel, err := filepath.Rel(root, at.Filename)
				if err != nil {
					rel = at.Filename
				}
				t.Errorf("%s:%d: float sum inside a range over a map depends on iteration order",
					filepath.ToSlash(rel), at.Line)
			}
		}
	}
}

// mapOrderFloatSums returns the position of every float `+=`/`-=` inside
// the body of a range over a map whose target is declared outside that
// range statement. Accumulators declared inside the loop start afresh each
// iteration, so their sums do not depend on the map's order.
func mapOrderFloatSums(f *ast.File, info *types.Info) []token.Pos {
	found := make(map[token.Pos]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if _, isMap := info.TypeOf(rs.X).Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rs.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) {
				return true
			}
			basic, ok := info.TypeOf(as.Lhs[0]).Underlying().(*types.Basic)
			if !ok || basic.Info()&types.IsFloat == 0 {
				return true
			}
			if obj := rootObject(as.Lhs[0], info); obj == nil || obj.Pos() < rs.Pos() || obj.Pos() >= rs.End() {
				found[as.Pos()] = true
			}
			return true
		})
		return true
	})
	out := make([]token.Pos, 0, len(found))
	for pos := range found {
		out = append(out, pos)
	}
	slices.Sort(out)
	return out
}

// rootObject returns the variable an assignment target is rooted at: x for
// x, x.f, x[i] and *x, pkg.V for a qualified package variable; nil when the
// target has no such root.
func rootObject(e ast.Expr, info *types.Info) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isPkg := info.ObjectOf(id).(*types.PkgName); isPkg {
					return info.ObjectOf(x.Sel)
				}
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}
