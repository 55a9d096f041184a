package bench

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// roleOf classifies a repository-relative package directory into the
// Fig. 20 roles. The paper compares the web applications, the reusable
// caching library (JWebCaching, including the query-analysis engine) and
// the AspectJ weaving code; our weave package is the AspectJ analogue.
func roleOf(rel string) string {
	switch {
	case strings.HasPrefix(rel, "internal/rubis"):
		return "Web application: RUBiS"
	case strings.HasPrefix(rel, "internal/tpcw"):
		return "Web application: TPC-W"
	case strings.HasPrefix(rel, "internal/cache"),
		strings.HasPrefix(rel, "internal/analysis"):
		return "Caching library (JWebCaching analogue)"
	case strings.HasPrefix(rel, "internal/weave"):
		return "Weaving code (AspectJ analogue)"
	case strings.HasPrefix(rel, "internal/memdb"),
		strings.HasPrefix(rel, "internal/sqlparser"),
		strings.HasPrefix(rel, "internal/servlet"):
		return "Substrate (database engine, SQL parser, servlet layer)"
	case strings.HasPrefix(rel, "internal/workload"),
		strings.HasPrefix(rel, "internal/bench"),
		strings.HasPrefix(rel, "cmd/"), strings.HasPrefix(rel, "examples/"):
		return "Harness (client emulator, experiments, tools)"
	default:
		return ""
	}
}

// CountLines counts non-blank, non-comment-only lines of the Go files under
// dir (tests excluded when includeTests is false).
func CountLines(dir string, includeTests bool) (int, error) {
	total := 0
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		if !includeTests && strings.HasSuffix(name, "_test.go") {
			return nil
		}
		n, err := countFileLines(path)
		if err != nil {
			return err
		}
		total += n
		return nil
	})
	return total, err
}

func countFileLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	inBlock := false
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if inBlock {
			if idx := strings.Index(line, "*/"); idx >= 0 {
				inBlock = false
			}
			continue
		}
		if strings.HasPrefix(line, "//") {
			continue
		}
		if strings.HasPrefix(line, "/*") {
			if !strings.Contains(line, "*/") {
				inBlock = true
			}
			continue
		}
		n++
	}
	return n, sc.Err()
}

// Fig20 reproduces the code-size comparison (Fig. 20): the weaving code is
// a small fraction of both the applications and the caching library, the
// paper's maintainability argument.
func Fig20(root string) (*Table, error) {
	byRole := make(map[string]int)
	for _, sub := range []string{"internal", "cmd", "examples"} {
		base := filepath.Join(root, sub)
		entries, err := os.ReadDir(base)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, err
		}
		for _, e := range entries {
			if !e.IsDir() {
				continue
			}
			rel := filepath.ToSlash(filepath.Join(sub, e.Name()))
			role := roleOf(rel)
			if role == "" {
				continue
			}
			n, err := CountLines(filepath.Join(base, e.Name()), false)
			if err != nil {
				return nil, err
			}
			byRole[role] += n
		}
	}
	if len(byRole) == 0 {
		return nil, fmt.Errorf("bench: no Go packages found under %s", root)
	}
	roles := make([]string, 0, len(byRole))
	for r := range byRole {
		roles = append(roles, r)
	}
	sort.Slice(roles, func(i, j int) bool { return byRole[roles[i]] > byRole[roles[j]] })
	t := &Table{
		ID:      "fig20",
		Title:   "Web App & Cache Library Code Size vs. Weaving Code Size",
		Columns: []string{"Role", "Lines of code"},
		Notes: []string{
			"paper: 'Size of code written in AspectJ for weaving caching into the application is much smaller' than the library and the applications",
		},
	}
	for _, r := range roles {
		t.AddRow(r, byRole[r])
	}
	if w, lib := byRole["Weaving code (AspectJ analogue)"], byRole["Caching library (JWebCaching analogue)"]; w > 0 && lib > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("weaving code is %.1f%% of the caching library", 100*float64(w)/float64(lib)))
	}
	return t, nil
}
