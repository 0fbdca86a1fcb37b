package hybridmem

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
	"runtime"
	"sort"
	"strings"
	"testing"
)

// noCallerMark is the doc-comment escape for an exported function
// that is kept on purpose although no production code calls it; the
// sentence it starts gives the reason.
const noCallerMark = "No production caller:"

// listedPackage is the part of `go list -json` output the export
// check reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
}

// TestInternalExportsHaveCallers type-checks every non-test package of
// the module and of perfbench, and fails on any exported function or
// method of an internal package or of the root facade that no non-test
// code uses. A use inside the function's own body does not count. A
// method that satisfies one of the module's interfaces, error or
// fmt.Stringer, or that is named Unwrap, is exempt, since it is called
// through the interface. An export kept on purpose says so in its doc
// comment with a sentence that starts "No production caller:"; the
// test also fails when such an export has gained a caller, so the
// escape cannot go stale.
func TestInternalExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	// Packages outside the two modules come from the compiler's export
	// data; the module's own are checked from source, in the
	// dependency order `go list -deps` prints, so that every use
	// resolves to the object its declaration defined.
	var order []*listedPackage
	exports := map[string]string{}
	for _, dir := range []string{".", "perfbench"} {
		pkgs, err := goList(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pkgs {
			if _, dup := exports[p.ImportPath]; !dup {
				exports[p.ImportPath] = p.Export
				order = append(order, p)
			}
		}
	}
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if f := exports[path]; f != "" {
			return os.Open(f)
		}
		return nil, fmt.Errorf("no export data for %q", path)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return gc.Import(path)
	})
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: imp, Sizes: types.SizesFor("gc", runtime.GOARCH)}
	// The candidates: every exported function and method declared in a
	// non-test file of an internal package or of the root package.
	type export struct {
		fn     *types.Func
		decl   *ast.FuncDecl
		marked bool
		used   bool
	}
	candidates := map[*types.Func]*export{}
	for _, p := range order {
		if p.Module == nil || (p.Module.Path != "repro" && p.Module.Path != "repro/perfbench") {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		pkg, err := conf.Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		checked[p.ImportPath] = pkg
		if p.ImportPath != "repro" && !strings.HasPrefix(p.ImportPath, "repro/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := info.Defs[fd.Name].(*types.Func)
				marked := fd.Doc != nil && strings.Contains(strings.Join(strings.Fields(fd.Doc.Text()), " "), noCallerMark)
				candidates[fn] = &export{fn: fn, decl: fd, marked: marked}
			}
		}
	}
	for id, obj := range info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		e := candidates[fn.Origin()]
		if e == nil || (id.Pos() >= e.decl.Pos() && id.Pos() < e.decl.End()) {
			continue
		}
		e.used = true
	}

	fmtPkg, err := gc.Import("fmt")
	if err != nil {
		t.Fatal(err)
	}
	ifaces := moduleInterfaces(checked, fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface))
	var violations []string
	for _, e := range candidates {
		switch {
		case e.used && e.marked:
			violations = append(violations, fmt.Sprintf("%s: %s has a production caller but is marked %q", fset.Position(e.decl.Pos()), e.fn.FullName(), noCallerMark))
		case !e.used && !e.marked && !satisfiesInterface(e.fn, ifaces):
			violations = append(violations, fmt.Sprintf("%s: %s has no production caller", fset.Position(e.decl.Pos()), e.fn.FullName()))
		}
	}
	sort.Strings(violations)
	for _, v := range violations {
		t.Error(v)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// goList lists the packages of the module in dir and all their
// dependencies, dependencies first, with compiled export data.
func goList(dir string) ([]*listedPackage, error) {
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,GoFiles,Export,Module", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); errors.Is(err, io.EOF) {
			return pkgs, nil
		} else if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
}

// moduleInterfaces returns error, stringer and every interface type
// the checked packages declare at package level.
func moduleInterfaces(checked map[string]*types.Package, stringer *types.Interface) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface), stringer}
	for _, pkg := range checked {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
	}
	return ifaces
}

// satisfiesInterface reports whether method fn is named Unwrap or is
// how its receiver type implements one of ifaces.
func satisfiesInterface(fn *types.Func, ifaces []*types.Interface) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	if fn.Name() == "Unwrap" {
		return true
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
				return true
			}
		}
	}
	return false
}
