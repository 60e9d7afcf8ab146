package main

import (
	"bufio"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// CodeBench is the "least code" record: Go lines of the module that
// are neither blank nor a // comment line, outside _test.go files, per
// package directory and in total. It is the count of
//
//	cat <non-test .go files> | grep -v '^\s*//' | grep -v '^\s*$' | wc -l
//
// so a simplification's claim can be checked by hand. Nested modules
// (bench/) and testdata are not part of it.
type CodeBench struct {
	TotalLines int            `json:"total_lines"`
	Packages   map[string]int `json:"packages"`
}

// moduleRoot returns the nearest directory at or above the working
// directory that holds a go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod at or above the working directory")
		}
		dir = parent
	}
}

// measureCode counts the code lines of the module rooted at root.
func measureCode(root string) (*CodeBench, error) {
	code := &CodeBench{Packages: make(map[string]int)}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			_, nested := os.Stat(filepath.Join(path, "go.mod"))
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || nested == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		lines := 0
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "//") {
				lines++
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
		pkg, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		code.Packages[filepath.ToSlash(pkg)] += lines
		code.TotalLines += lines
		return nil
	})
	if err != nil {
		return nil, err
	}
	return code, nil
}
