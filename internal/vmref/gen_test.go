package vmref

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestOnlyTestsImport: vmref is test infrastructure, so no non-test file of
// the repository imports it.
func TestOnlyTestsImport(t *testing.T) {
	files := 0
	err := filepath.WalkDir(filepath.Join("..", ".."), func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && strings.HasPrefix(d.Name(), ".") && d.Name() != "." && d.Name() != "..":
			return filepath.SkipDir // .git, the benchmark's build cache
		case d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		for _, im := range f.Imports {
			if im.Path.Value == `"fluidicl/internal/vmref"` {
				t.Errorf("%s imports internal/vmref", p)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("found no Go files")
	}
}
