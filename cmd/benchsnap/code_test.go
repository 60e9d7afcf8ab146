package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestMeasureCodeCountsWhatTheGrepCounts(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":            "module m\n",
		"a.go":              "// Package m.\npackage m\n\n\t// indented comment\nvar x = 1 // trailing comments count\n",
		"a_test.go":         "package m\nvar inTest = 1\n",
		"notes.md":          "not go\n",
		"sub/b.go":          "package sub\n\nfunc f() {\n}\n",
		"sub/c.go":          "package sub\n",
		"sub/testdata/d.go": "package d\n",
		".hidden/e.go":      "package e\n",
		"nested/go.mod":     "module nested\n",
		"nested/f.go":       "package f\n",
	}
	for name, body := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := measureCode(root)
	if err != nil {
		t.Fatal(err)
	}
	want := &CodeBench{TotalLines: 6, Packages: map[string]int{".": 2, "sub": 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("measureCode = %+v, want %+v", got, want)
	}
}
