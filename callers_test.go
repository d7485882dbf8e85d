package vmalloc_test

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerExemptions names the functions and methods that no non-test code
// calls and that stay anyway, each with its reason: a reference a test
// compares the service against, or a gap filed in the ROADMAP. A row that
// names nothing unused fails the test, so the table only shrinks with the
// code it excuses.
var callerExemptions = map[string]string{
	"internal/model.Server.Power": "paper Eq. 1 as written, pinned by model's tests; " +
		"the code prices its integrated forms (UnitCPUPower, energy.AffineCurve)",
	"internal/cluster.Cluster.Snapshot": "the one heal of ErrJournalBroken besides Close; " +
		"no production path heals a broken journal yet (ROADMAP item 28)",
}

// TestEveryFunctionHasACaller type-checks every non-test package of the
// module, and the benchmark module's, and fails on a function or method
// that no non-test code uses: code that only tests reach is a second
// answer kept alive by its own tests. Not counted as unused:
//   - a method whose name and signature match a method of an interface the
//     module declares (a constraint's among them), or of error;
//   - a method of a type that implements, as T or *T, a whole interface
//     the module imports and that interface has the method (String,
//     ServeHTTP, slog.Handler's): matching one method of it is not enough,
//     or sort.Interface would keep every Len alive;
//   - anything in the root package (its callers are the library's users),
//     in internal/promlint (the linter the tests share) or in bench/ (a
//     caller only);
//   - the rows of callerExemptions.
//
// A use is keyed by its object's declared file:line:column, not by the
// object: the source importer checks an imported package a second time,
// and a line alone would let a parameter's uses mask the function
// declared on the same line.
func TestEveryFunctionHasACaller(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	pos := func(obj types.Object) string { return fset.Position(obj.Pos()).String() }
	sigKey := func(fn *types.Func) string { // name and parameter types, without parameter names
		sig := fn.Type().(*types.Signature)
		key := fmt.Sprint(fn.Name(), sig.Variadic())
		for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
			key += "|"
			for i := 0; i < tuple.Len(); i++ {
				key += types.TypeString(tuple.At(i).Type(), (*types.Package).Path) + ","
			}
		}
		return key
	}

	declared := map[string]*types.Func{} // position → function or method that must have a caller
	used := map[string]bool{}            // position of every function or method non-test code uses
	ifaceMethods := map[string]bool{sigKey(types.Universe.Lookup("error").Type().Underlying().(*types.Interface).Method(0)): true}
	imported := map[string][]*types.Interface{} // method key → the imported interfaces with that method
	implements := func(fn *types.Func) bool {
		t := fn.Type().(*types.Signature).Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		for _, it := range imported[sigKey(fn)] {
			if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
				return true
			}
		}
		return false
	}

	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		} else if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, dir)
		rel = filepath.ToSlash(rel)
		var files []*ast.File
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
			if err != nil {
				return err
			}
			files = append(files, f)
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		pkg, err := conf.Check(filepath.ToSlash(filepath.Join("vmalloc", rel)), fset, files, info)
		if err != nil {
			return fmt.Errorf("%s: %w", rel, err)
		}
		for _, imp := range pkg.Imports() {
			module := imp.Path() == "vmalloc" || strings.HasPrefix(imp.Path(), "vmalloc/")
			for _, name := range imp.Scope().Names() {
				if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						for i := 0; i < it.NumMethods(); i++ {
							key := sigKey(it.Method(i))
							if module {
								ifaceMethods[key] = true
							} else {
								imported[key] = append(imported[key], it)
							}
						}
					}
				}
			}
		}
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				used[pos(fn.Origin())] = true
			}
		}
		checked := rel != "." && rel != "bench" && rel != "internal/promlint"
		for id, obj := range info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			if recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods[sigKey(fn)] = true
				continue
			}
			if checked && id.Name != "_" && !(recv == nil && (id.Name == "init" || id.Name == "main")) {
				declared[pos(fn)] = fn
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	flagged := map[string]string{} // exemption key → position
	for p, fn := range declared {
		if used[p] {
			continue
		}
		if fn.Type().(*types.Signature).Recv() != nil && (ifaceMethods[sigKey(fn)] || implements(fn)) {
			continue
		}
		flagged[exemptionKey(fn)] = p
	}
	var unused []string
	for key, p := range flagged {
		if _, ok := callerExemptions[key]; !ok {
			rel, _ := filepath.Rel(root, p)
			unused = append(unused, rel+": "+key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("only tests call %s: delete it, or give it a row in callerExemptions", u)
	}
	for key := range callerExemptions {
		if _, ok := flagged[key]; !ok {
			t.Errorf("callerExemptions row %s names nothing unused: delete the row", key)
		}
	}
}

// exemptionKey names fn as callerExemptions does: its package's directory,
// then the receiver's type name for a method, then its own name.
func exemptionKey(fn *types.Func) string {
	key := strings.TrimPrefix(fn.Pkg().Path(), "vmalloc/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		key += t.(*types.Named).Obj().Name() + "."
	}
	return key + fn.Name()
}
