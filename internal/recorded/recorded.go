// Package recorded checks simulator output against reference rows
// committed under a package's testdata directory.
//
// A reference file is a TSV of "id<TAB>value" lines sorted by id. Ids are
// grouped by their first path element ("tightloop/Baseline/16c/s1" belongs
// to group "tightloop"), so several tests can share one file, each owning
// its group: Check compares a test's rows with its group, and in update
// mode rewrites that group alone, keeping the other groups' rows.
package recorded

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// Row is one recorded point: a stable id and the rendered output.
type Row struct {
	ID, Value string
}

// Rowf renders a row whose value is v printed with %+v.
func Rowf(id string, v any) Row { return Row{ID: id, Value: fmt.Sprintf("%+v", v)} }

// Fields renders struct v as "Name:value" pairs in declaration order,
// each value printed with %+v, leaving out the named fields. Unlike %+v
// on v itself it ignores v's String method, which typically prints only
// a headline.
func Fields(v any, skip ...string) string {
	rv := reflect.ValueOf(v)
	var b strings.Builder
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		if slices.Contains(skip, name) {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s:%+v", name, rv.Field(i).Interface())
	}
	return b.String()
}

// Check asserts that got equals the rows of group in the file at path,
// id for id and byte for byte, and that the file holds no stale id of the
// group. With update set it rewrites the group's rows from got instead.
func Check(t testing.TB, path, group string, got []Row, update bool) {
	t.Helper()
	all, err := load(path)
	if err != nil && !(update && os.IsNotExist(err)) {
		t.Fatalf("reference file %s (regenerate with -update-golden): %v", path, err)
	}
	prefix := group + "/"
	if update {
		for id := range all {
			if strings.HasPrefix(id, prefix) {
				delete(all, id)
			}
		}
		for _, r := range got {
			all[prefix+r.ID] = r.Value
		}
		if err := store(path, all); err != nil {
			t.Fatal(err)
		}
		return
	}
	seen := make(map[string]bool, len(got))
	for _, r := range got {
		id := prefix + r.ID
		seen[id] = true
		want, ok := all[id]
		switch {
		case !ok:
			t.Errorf("%s: not in %s (regenerate with -update-golden)", id, path)
		case want != r.Value:
			t.Errorf("%s diverged from the recorded reference\n  got: %s\n want: %s", id, r.Value, want)
		}
	}
	for id := range all {
		if strings.HasPrefix(id, prefix) && !seen[id] {
			t.Errorf("%s: recorded in %s but no longer produced", id, path)
		}
	}
}

func load(path string) (map[string]string, error) {
	rows := make(map[string]string)
	raw, err := os.ReadFile(path)
	if err != nil {
		return rows, err
	}
	for _, line := range strings.Split(strings.TrimRight(string(raw), "\n"), "\n") {
		id, v, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, fmt.Errorf("%s: malformed line %q", path, line)
		}
		rows[id] = v
	}
	return rows, nil
}

func store(path string, rows map[string]string) error {
	ids := make([]string, 0, len(rows))
	for id := range rows {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var b strings.Builder
	for _, id := range ids {
		b.WriteString(id + "\t" + rows[id] + "\n")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
