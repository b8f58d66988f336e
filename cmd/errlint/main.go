// Command errlint is a small errcheck-style linter: it reports call
// statements that discard an error result. The durability layer
// (internal/persist and its file layer) is exactly the code where a
// silently dropped error becomes data loss — the Inspect size bug and
// the ignored directory-fsync result both shipped that way — so `make
// lint` runs this over it, and over the server, jobs, remote, shard,
// core, api and tpmd packages, and fails on any finding.
//
//	go run ./cmd/errlint ./internal/persist ./internal/server
//
// Each argument is a directory; its package and every nested package
// are type-checked (tests excluded) and scanned. Each package is
// type-checked once, whether it is first reached as an import or as an
// argument, so the argument order never matters. A finding is an
// expression statement whose call returns an error (alone or in a
// tuple) that nothing consumes. Assigning to _ is deliberate and not
// flagged; functions whose contract is best-effort should take that
// route with a comment.
//
// The linter is self-contained on purpose — go/types plus the source
// importer, no module downloads — so it runs in the same sandbox as the
// build.
package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: errlint <package-dir> [<package-dir> ...]")
		os.Exit(2)
	}
	root, module, err := findModule()
	if err != nil {
		fmt.Fprintln(os.Stderr, "errlint:", err)
		os.Exit(2)
	}
	l := newLinter(root, module)
	var dirs []string
	for _, arg := range os.Args[1:] {
		sub, err := packageDirs(arg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "errlint:", err)
			os.Exit(2)
		}
		dirs = append(dirs, sub...)
	}
	findings := 0
	for _, dir := range dirs {
		n, err := l.lintDir(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "errlint: %s: %v\n", dir, err)
			os.Exit(2)
		}
		findings += n
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "errlint: %d unchecked error(s)\n", findings)
		os.Exit(1)
	}
}

// findModule locates go.mod upward from the working directory and
// returns the module root and path.
func findModule() (root, module string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("no module line in %s/go.mod", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}

// packageDirs expands one argument into every directory under it that
// holds non-test Go files.
func packageDirs(arg string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(arg, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			name := e.Name()
			if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
				dirs = append(dirs, path)
				break
			}
		}
		return nil
	})
	sort.Strings(dirs)
	return dirs, err
}

type linter struct {
	fset     *token.FileSet
	root     string // module root directory
	module   string // module path
	cache    map[string]*checked
	fallback types.ImporterFrom
}

// checked is one type-checked package with the syntax and type
// information the lint pass reads.
type checked struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func newLinter(root, module string) *linter {
	l := &linter{fset: token.NewFileSet(), root: root, module: module, cache: map[string]*checked{}}
	l.fallback = importer.ForCompiler(l.fset, "source", nil).(types.ImporterFrom)
	return l
}

// Import / ImportFrom make the linter its own importer: module-local
// packages are type-checked from source in the repo, everything else
// (the stdlib) goes through the compiler's source importer.
func (l *linter) Import(path string) (*types.Package, error) { return l.ImportFrom(path, "", 0) }

func (l *linter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if rel, ok := strings.CutPrefix(path, l.module+"/"); ok {
		c, err := l.check(filepath.Join(l.root, rel), path)
		if err != nil {
			return nil, err
		}
		return c.pkg, nil
	}
	return l.fallback.ImportFrom(path, dir, mode)
}

// check parses and type-checks the non-test files of one directory,
// once per import path: whether a package is first reached as an import
// or as a lint target, every later use gets the same *types.Package. A
// second check would make a second package, and a package importing
// both copies would see two types of one name.
func (l *linter) check(dir, importPath string) (*checked, error) {
	if c, ok := l.cache[importPath]; ok {
		return c, nil
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	c := &checked{pkg: pkg, files: files, info: info}
	l.cache[importPath] = c
	return c, nil
}

// lintDir type-checks one directory and reports unchecked errors.
func (l *linter) lintDir(dir string) (int, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return 0, err
	}
	rel, err := filepath.Rel(l.root, abs)
	if err != nil {
		return 0, err
	}
	c, err := l.check(abs, path.Join(l.module, filepath.ToSlash(rel)))
	if err != nil {
		return 0, err
	}

	findings := 0
	for _, f := range c.files {
		ast.Inspect(f, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := stmt.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			if returnsError(c.info.Types[call].Type) {
				pos := l.fset.Position(call.Pos())
				fmt.Printf("%s: result of %s is never checked (returns error)\n",
					pos, calleeName(call))
				findings++
			}
			return true
		})
	}
	return findings, nil
}

// returnsError reports whether a call's result type is, or contains, an
// error.
func returnsError(t types.Type) bool {
	if t == nil {
		return false
	}
	if tup, ok := t.(*types.Tuple); ok {
		for i := 0; i < tup.Len(); i++ {
			if isErrorType(tup.At(i).Type()) {
				return true
			}
		}
		return false
	}
	return isErrorType(t)
}

func isErrorType(t types.Type) bool {
	return types.AssignableTo(t, types.Universe.Lookup("error").Type())
}

// calleeName renders the called expression for the report.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		if x, ok := fn.X.(*ast.Ident); ok {
			return x.Name + "." + fn.Sel.Name
		}
		return fn.Sel.Name
	default:
		return "call"
	}
}
