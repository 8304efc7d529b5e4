// Command reach measures program reach: which functions of the module
// its programs execute. It builds every program entry point with
// coverage instrumentation (go build -cover -coverpkg=repro/...), runs
// each under GOCOVERDIR —
//
//   - cesim over the whole suite at 240 h, its fig1* family journaled
//     to a checkpoint directory and then resumed from it, and longhaul
//     writing its engine checkpoints there;
//   - the bench ledger at one rep, probes included;
//   - every example under examples/;
//   - a scripted carbonedge session (session.go): deployments, a batch,
//     a fault script of all five kinds, every endpoint scraped, a wrong
//     method, an undeploy, and the state moved into a second service —
//
// prints per-package statement reach, and gates function reach the way
// detlint gates suppressions. It fails when a function of a gated
// package (internal/ except internal/lint, cmd/cesim, cmd/carbonedge) is
// never executed and has no line in the allowlist, and when an
// allowlisted function is now executed or no longer exists (a stale
// entry). An allowlist line is "<package>.<function> <reason>", the
// package relative to the module and the function as go tool covdata
// prints it:
//
//	internal/sweep.DefaultParallel sweep.Map with parallel <= 0: cesim -parallel 0
//
// Usage, from the module root:
//
//	go run ./cmd/reach              # or: make reach
//	go run ./cmd/reach -v           # also list every function at 0 %
//	go run ./cmd/reach -work dir    # keep binaries, coverage data and outputs in dir
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

const module = "repro"

func main() {
	allow := flag.String("allow", "cmd/reach/allowlist.txt", "allowlist of functions no program reaches")
	work := flag.String("work", "", "directory for binaries, coverage data and outputs (default: a temporary directory, removed)")
	verbose := flag.Bool("v", false, "list every function at 0 %, allowlisted or not")
	flag.Parse()
	if err := run(*allow, *work, *verbose, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run(allowPath, work string, verbose bool, out io.Writer) error {
	entries, err := readAllowlist(allowPath)
	if err != nil {
		return err
	}
	if work == "" {
		tmp, err := os.MkdirTemp("", "reach-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(tmp)
		work = tmp
	}
	if work, err = filepath.Abs(work); err != nil {
		return err
	}
	cov := filepath.Join(work, "cov")
	if err := os.MkdirAll(cov, 0o755); err != nil {
		return err
	}
	bin, err := buildAll(work)
	if err != nil {
		return err
	}
	r := &runner{work: work, env: append(os.Environ(), "GOCOVERDIR="+cov)}
	if err := r.runAll(bin); err != nil {
		return err
	}

	percent, err := goTool("covdata", "percent", "-i="+cov)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "program reach (statements):")
	out.Write(percent)
	funcs, err := goTool("covdata", "func", "-i="+cov)
	if err != nil {
		return err
	}
	scoped, err := goList("./internal/...", "./cmd/cesim", "./cmd/carbonedge")
	if err != nil {
		return err
	}
	fns, err := parseFuncs(funcs)
	if err != nil {
		return err
	}
	rep := gate(fns, scoped, entries)
	rep.print(out, verbose)
	if rep.failed() {
		return fmt.Errorf("%d unreached function(s) not allowlisted, %d stale allowlist entr(ies), %d package(s) linked into no program",
			len(rep.unlisted), len(rep.stale), len(rep.unlinked))
	}
	return nil
}

// buildAll builds every program with coverage instrumentation of the
// whole module into work/bin and returns that directory. The ledger is
// its own module (bench/), built from there.
func buildAll(work string) (string, error) {
	bin := filepath.Join(work, "bin")
	progs := []string{"./cmd/cesim", "./cmd/carbonedge"}
	examples, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		return "", err
	}
	for _, m := range examples {
		progs = append(progs, "./"+filepath.Dir(m))
	}
	for _, p := range progs {
		if err := build(".", filepath.Join(bin, path.Base(p)), p); err != nil {
			return "", err
		}
	}
	return bin, build("bench", filepath.Join(bin, "ledger"), ".")
}

func build(dir, out, pkg string) error {
	cmd := exec.Command("go", "build", "-cover", "-coverpkg="+module+"/...", "-o", out, pkg)
	cmd.Dir = dir
	if b, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("build %s: %v\n%s", pkg, err, b)
	}
	return nil
}

// runner runs instrumented programs with the coverage directory set,
// each one's output kept in work/<name>.log.
type runner struct {
	work string
	env  []string
}

func (r *runner) runAll(bin string) error {
	ckpt := filepath.Join(r.work, "ckpt")
	runs := []struct {
		name string
		args []string
	}{
		{"cesim-all", []string{bin + "/cesim", "-all", "-hours", "240"}},
		{"cesim-journal", []string{bin + "/cesim", "-only", "fig1*", "-hours", "240", "-checkpoint-dir", ckpt}},
		{"cesim-resume", []string{bin + "/cesim", "-only", "fig1*", "-hours", "240", "-checkpoint-dir", ckpt, "-resume"}},
		{"cesim-longhaul", []string{bin + "/cesim", "-exp", "longhaul", "-hours", "240", "-checkpoint-dir", ckpt}},
		{"ledger", []string{bin + "/ledger", "--reps", "1", "--out", filepath.Join(r.work, "ledger")}},
	}
	examples, err := filepath.Glob("examples/*/main.go")
	if err != nil {
		return err
	}
	for _, m := range examples {
		name := filepath.Base(filepath.Dir(m))
		runs = append(runs, struct {
			name string
			args []string
		}{"example-" + name, []string{bin + "/" + name}})
	}
	for _, rn := range runs {
		if err := r.run(rn.name, rn.args...); err != nil {
			return err
		}
	}
	return r.session(bin + "/carbonedge")
}

// run runs one program to completion.
func (r *runner) run(name string, args ...string) error {
	cmd, log, err := r.command(name, args...)
	if err != nil {
		return err
	}
	defer log.Close()
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("%s: %v (output in %s)", name, err, log.Name())
	}
	return nil
}

func (r *runner) command(name string, args ...string) (*exec.Cmd, *os.File, error) {
	log, err := os.Create(filepath.Join(r.work, name+".log"))
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(args[0], args[1:]...)
	cmd.Env, cmd.Stdout, cmd.Stderr = r.env, log, log
	return cmd, log, nil
}

func goTool(args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"tool"}, args...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	b, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool %s: %v\n%s", strings.Join(args, " "), err, stderr.Bytes())
	}
	return b, nil
}

func goList(patterns ...string) ([]string, error) {
	b, err := exec.Command("go", append([]string{"list"}, patterns...)...).Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v", err)
	}
	var pkgs []string
	for _, p := range strings.Fields(string(b)) {
		if gated(p) {
			pkgs = append(pkgs, p)
		}
	}
	return pkgs, nil
}

// gated reports whether a package's functions are held to the gate.
func gated(pkg string) bool {
	switch {
	case pkg == module+"/internal/lint" || strings.HasPrefix(pkg, module+"/internal/lint/"):
		return false
	case strings.HasPrefix(pkg, module+"/internal/"):
		return true
	}
	return pkg == module+"/cmd/cesim" || pkg == module+"/cmd/carbonedge"
}

// fn is one line of go tool covdata func.
type fn struct {
	pkg, key, pos string
	reached       bool
}

// parseFuncs reads go tool covdata func output:
// "repro/internal/sim/engine.go:123:\t*Engine.Step\t\t85.7%".
func parseFuncs(b []byte) ([]fn, error) {
	var fns []fn
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 0 || f[0] == "total" {
			continue
		}
		if len(f) != 3 || !strings.HasSuffix(f[2], "%") {
			return nil, fmt.Errorf("covdata func: unexpected line %q", sc.Text())
		}
		file := strings.SplitN(f[0], ":", 2)[0]
		pkg := path.Dir(file)
		fns = append(fns, fn{
			pkg:     pkg,
			key:     strings.TrimPrefix(pkg, module+"/") + "." + f[1],
			pos:     strings.TrimSuffix(strings.TrimPrefix(f[0], module+"/"), ":"),
			reached: f[2] != "0.0%",
		})
	}
	return fns, sc.Err()
}

// readAllowlist reads "<package>.<function> <reason>" lines; blank lines
// and #-comments are skipped. Every entry needs a reason, and none may
// repeat.
func readAllowlist(name string) (map[string]string, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, err
	}
	entries := map[string]string{}
	for i, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", name, i+1, key)
		}
		if _, dup := entries[key]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", name, i+1, key)
		}
		entries[key] = strings.TrimSpace(reason)
	}
	return entries, nil
}

// report is the gate's verdict.
type report struct {
	unlisted []fn     // unreached, gated, not allowlisted
	listed   []fn     // unreached and allowlisted
	stale    []string // allowlisted but reached or gone, with why
	unlinked []string // gated packages no program links
}

func (r *report) failed() bool {
	return len(r.unlisted)+len(r.stale)+len(r.unlinked) > 0
}

// gate holds the measured functions to the allowlist. A name that
// covdata lists more than once (a package's init functions) counts as
// reached only when every instance is.
func gate(fns []fn, scoped []string, allow map[string]string) *report {
	r := &report{}
	seenPkg := map[string]bool{}
	reached := map[string]bool{}
	for _, f := range fns {
		seenPkg[f.pkg] = true
		if !gated(f.pkg) {
			continue
		}
		if old, ok := reached[f.key]; ok {
			reached[f.key] = old && f.reached
		} else {
			reached[f.key] = f.reached
		}
		if f.reached {
			continue
		}
		if _, ok := allow[f.key]; ok {
			r.listed = append(r.listed, f)
		} else {
			r.unlisted = append(r.unlisted, f)
		}
	}
	for _, p := range scoped {
		if !seenPkg[p] {
			r.unlinked = append(r.unlinked, p)
		}
	}
	for key := range allow {
		switch done, ok := reached[key]; {
		case !ok:
			r.stale = append(r.stale, key+": no such function in a gated package")
		case done:
			r.stale = append(r.stale, key+": now reached")
		}
	}
	sort.Strings(r.stale)
	return r
}

func (r *report) print(w io.Writer, verbose bool) {
	if verbose {
		fmt.Fprintf(w, "allowlisted functions at 0 %% (%d):\n", len(r.listed))
		for _, f := range r.listed {
			fmt.Fprintf(w, "\t%s\t%s\n", f.pos, f.key)
		}
	} else {
		fmt.Fprintf(w, "allowlisted functions at 0 %%: %d\n", len(r.listed))
	}
	for _, f := range r.unlisted {
		fmt.Fprintf(w, "unreached: %s\t%s (give it a program caller, delete it, or allowlist it with a reason)\n", f.pos, f.key)
	}
	for _, s := range r.stale {
		fmt.Fprintf(w, "stale allowlist entry: %s\n", s)
	}
	for _, p := range r.unlinked {
		fmt.Fprintf(w, "linked into no program: %s\n", p)
	}
}
