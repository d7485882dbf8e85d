package vmalloc_test

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/shard"
)

var updateSurface = flag.Bool("update", false, "rewrite testdata/surface.golden from this build's surface")

// TestSurfaceGolden pins the project's outward surface in one file: each
// command's flags with their defaults (its -h output), the HTTP route
// patterns (read from source), the metric families each daemon exports
// (name, type, HELP, label keys; one in-process scrape each, after one
// admission), the api.Code* error codes and the root facade's exported
// names. A change that moves any of them shows as a diff of
// testdata/surface.golden; -update rewrites it.
func TestSurfaceGolden(t *testing.T) {
	var b strings.Builder
	surfaceFlags(t, &b)
	surfaceRoutes(t, &b)
	surfaceMetrics(t, &b, "vmserve", scrapeServe(t))
	surfaceMetrics(t, &b, "vmgate", scrapeGate(t))
	surfaceCodes(t, &b)
	surfaceFacade(t, &b)

	const path = "testdata/surface.golden"
	if *updateSurface {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -run TestSurfaceGolden -update . to write it)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for _, l := range wl {
			if !slices.Contains(gl, l) {
				t.Errorf("surface lost: %s", l)
			}
		}
		for _, l := range gl {
			if !slices.Contains(wl, l) {
				t.Errorf("surface gained: %s", l)
			}
		}
		t.Error("surface differs from " + path + " (-update rewrites it when the change is meant)")
	}
}

// surfaceFlags builds every command and records its -h output, one line
// per flag: its name and type, then its usage and default.
func surfaceFlags(t *testing.T, b *strings.Builder) {
	bin := t.TempDir()
	if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./cmd/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	cmds, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cmds {
		var out bytes.Buffer
		cmd := exec.Command(filepath.Join(bin, c.Name()), "-h")
		cmd.Stdout, cmd.Stderr = &out, &out
		cmd.Run() //nolint:errcheck // -h exits non-zero after printing the usage
		flagLine := ""
		for _, l := range strings.Split(out.String(), "\n") {
			switch {
			case strings.HasPrefix(l, "  -"):
				if flagLine != "" {
					fmt.Fprintln(b, flagLine)
				}
				flagLine = "flag " + c.Name() + " " + strings.TrimSpace(l) + ":"
			case strings.HasPrefix(l, "    "):
				flagLine += " " + strings.TrimSpace(l)
			}
		}
		if flagLine == "" {
			t.Errorf("%s -h printed no flags:\n%s", c.Name(), out.String())
			continue
		}
		fmt.Fprintln(b, flagLine)
	}
}

// surfaceRoutes records every HandleFunc pattern in non-test Go under
// cmd/ and internal/, with the directory that registers it.
func surfaceRoutes(t *testing.T, b *strings.Builder) {
	fset := token.NewFileSet()
	for _, top := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(top, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "HandleFunc" {
					if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
						pattern, _ := strconv.Unquote(lit.Value)
						fmt.Fprintf(b, "route %s %s\n", filepath.ToSlash(filepath.Dir(path)), pattern)
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// surfaceServers is a small fleet for the in-process scrapes.
func surfaceServers(firstID int) []model.Server {
	servers := make([]model.Server, 4)
	for i := range servers {
		servers[i] = model.Server{ID: firstID + i, Capacity: model.Resources{CPU: 10, Mem: 16},
			PIdle: 100, PPeak: 200, TransitionTime: 1}
	}
	return servers
}

// serveSurface opens a volatile cluster wired with every telemetry sink
// vmserve configures by default and serves it on an httptest server.
func serveSurface(t *testing.T, firstID int) *httptest.Server {
	c, err := cluster.Open(cluster.Config{
		Servers:     surfaceServers(firstID),
		IdleTimeout: 2,
		Recorder:    obs.NewFlightRecorder(0),
		Spans:       obs.NewSpanStore(0),
		Energy:      obs.NewEnergyRecorder(0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	srv := httptest.NewServer(clusterhttp.New(c, nil))
	t.Cleanup(srv.Close)
	return srv
}

// admitAndScrape admits one VM through base, then returns its /metrics.
func admitAndScrape(t *testing.T, base string) []byte {
	resp, err := http.Post(base+"/v1/vms", "application/json",
		strings.NewReader(`{"id":1,"demand":{"cpu":1,"mem":1},"durationMinutes":30}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("admit through %s: %s", base, resp.Status)
	}
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func scrapeServe(t *testing.T) []byte { return admitAndScrape(t, serveSurface(t, 1).URL) }

// scrapeGate fronts two shards with a gate configured as vmgate's
// defaults configure it.
func scrapeGate(t *testing.T) []byte {
	var shards []shard.Shard
	for i, name := range []string{"a", "b"} {
		shards = append(shards, shard.Shard{Name: name, Addr: serveSurface(t, 100*(i+1)).URL})
	}
	m, err := shard.NewMap(shards)
	if err != nil {
		t.Fatal(err)
	}
	g := shard.NewGate(m, shard.Config{Spans: obs.NewSpanStore(0)})
	srv := httptest.NewServer(g.Handler())
	t.Cleanup(srv.Close)
	return admitAndScrape(t, srv.URL)
}

// surfaceMetrics records each family the exposition declares: name,
// type, label keys of its samples, and HELP text.
func surfaceMetrics(t *testing.T, b *strings.Builder, daemon string, data []byte) {
	lines, err := obs.ReadExposition(data)
	if err != nil {
		t.Fatal(err)
	}
	type family struct{ typ, help string }
	fams := map[string]*family{}
	keys := map[string][]string{}
	var names []string
	current := ""
	for _, l := range lines {
		switch l.Kind {
		case "HELP", "TYPE":
			f := fams[l.Name]
			if f == nil {
				f = &family{}
				fams[l.Name] = f
				names = append(names, l.Name)
			}
			if l.Kind == "HELP" {
				f.help = l.Text
			} else {
				f.typ = l.Text
			}
			current = l.Name
		default:
			fam := l.Name
			if current != "" && (fam == current || strings.HasPrefix(fam, current+"_")) {
				fam = current
			} else if fams[fam] == nil {
				t.Errorf("%s: undeclared sample %s", daemon, l.Series())
				continue
			}
			for i := 0; i < len(l.Labels); i += 2 {
				if !slices.Contains(keys[fam], l.Labels[i]) {
					keys[fam] = append(keys[fam], l.Labels[i])
				}
			}
		}
	}
	slices.Sort(names)
	for _, name := range names {
		k := keys[name]
		slices.Sort(k)
		fmt.Fprintf(b, "metric %s %s %s {%s} %s\n", daemon, name, fams[name].typ, strings.Join(k, ","), fams[name].help)
	}
}

// surfaceCodes records the api.Code* constants and their values.
func surfaceCodes(t *testing.T, b *strings.Builder) {
	for _, c := range packageDoc(t, "internal/api", "api").Consts {
		for _, spec := range c.Decl.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if strings.HasPrefix(name.Name, "Code") && i < len(vs.Values) {
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok {
						fmt.Fprintf(b, "code %s %s\n", name.Name, lit.Value)
					}
				}
			}
		}
	}
}

// surfaceFacade records the root package's exported names: constants,
// variables, functions, types and their methods and constructors.
func surfaceFacade(t *testing.T, b *strings.Builder) {
	p := packageDoc(t, ".", "vmalloc")
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, name := range v.Names {
				fmt.Fprintf(b, "facade %s %s\n", kind, name)
			}
		}
	}
	values("const", p.Consts)
	values("var", p.Vars)
	for _, f := range p.Funcs {
		fmt.Fprintf(b, "facade func %s\n", f.Name)
	}
	for _, typ := range p.Types {
		fmt.Fprintf(b, "facade type %s\n", typ.Name)
		values("const", typ.Consts)
		values("var", typ.Vars)
		for _, f := range typ.Funcs {
			fmt.Fprintf(b, "facade func %s\n", f.Name)
		}
		for _, m := range typ.Methods {
			fmt.Fprintf(b, "facade method %s.%s\n", typ.Name, m.Name)
		}
	}
}

// packageDoc reads the exported declarations of the non-test Go files
// in dir.
func packageDoc(t *testing.T, dir, name string) *doc.Package {
	fset := token.NewFileSet()
	paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	p, err := doc.NewFromFiles(fset, files, "vmalloc/"+name)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
