package main

import (
	"os"
	"path/filepath"
	"testing"
)

// writeModule lays out a module "m" whose packages are given as
// directory → source.
func writeModule(t *testing.T, pkgs map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{"go.mod": "module m\n\ngo 1.22\n"}
	for dir, src := range pkgs {
		files[filepath.Join(dir, dir+".go")] = src
	}
	for name, src := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestLintOrderIndependent lints a package before a package it imports,
// then a package that imports both and passes a value from one to the
// other. Each import path must be type-checked once, so the last
// package sees one type a.T, whichever order the targets come in.
func TestLintOrderIndependent(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a": "package a\n\ntype T struct{}\n",
		"b": "package b\n\nimport \"m/a\"\n\nfunc F(*a.T) {}\n",
		"c": "package c\n\nimport (\n\t\"m/a\"\n\t\"m/b\"\n)\n\nfunc G() { b.F(&a.T{}) }\n",
	})
	l := newLinter(root, "m")
	for _, dir := range []string{"b", "a", "c"} {
		n, err := l.lintDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatalf("lint %s: %v", dir, err)
		}
		if n != 0 {
			t.Errorf("lint %s: %d findings, want 0", dir, n)
		}
	}
}

// TestLintFindsUncheckedError: a package first type-checked as an
// import is still linted when it comes up as a target.
func TestLintFindsUncheckedError(t *testing.T) {
	root := writeModule(t, map[string]string{
		"a": "package a\n\nfunc E() error { return nil }\n\nfunc G() { E() }\n",
		"b": "package b\n\nimport \"m/a\"\n\nfunc H() { _ = a.E() }\n",
	})
	l := newLinter(root, "m")
	for _, tc := range []struct {
		dir  string
		want int
	}{{"b", 0}, {"a", 1}} {
		n, err := l.lintDir(filepath.Join(root, tc.dir))
		if err != nil {
			t.Fatalf("lint %s: %v", tc.dir, err)
		}
		if n != tc.want {
			t.Errorf("lint %s: %d findings, want %d", tc.dir, n, tc.want)
		}
	}
}
