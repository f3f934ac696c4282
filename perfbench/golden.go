package main

import (
	"fmt"
	"os"
	"strings"

	"k2/internal/experiment"
)

// seedDependent lists the registry experiments whose tables depend on the
// workload seed. At the default seed they still match the golden; at any
// other seed they are checked by their own oracles (FAIL notes) and by
// byte equality across passes instead.
var seedDependent = map[string]bool{"faults": true, "chaos": true, "replication": true}

// defaultSeed is the seed at which every registry table matches the golden.
const defaultSeed = 1

// loadGolden splits the committed default k2bench output into one section
// per registry experiment, keyed by registry ID. k2bench prints each
// table's String() followed by a blank line, in registry order, so a
// section is everything from one "== " header line up to the blank line
// before the next.
func loadGolden(path string) (map[string]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read golden: %w", err)
	}
	var sections []string
	var cur strings.Builder
	lines := strings.SplitAfter(string(raw), "\n")
	for i, ln := range lines {
		prevBlank := i == 0 || lines[i-1] == "\n"
		if strings.HasPrefix(ln, "== ") && prevBlank && cur.Len() > 0 {
			sections = append(sections, strings.TrimSuffix(cur.String(), "\n"))
			cur.Reset()
		}
		cur.WriteString(ln)
	}
	if cur.Len() > 0 {
		sections = append(sections, strings.TrimSuffix(cur.String(), "\n"))
	}
	reg := experiment.Registry()
	if len(sections) != len(reg) {
		return nil, fmt.Errorf("golden %s has %d sections, registry has %d experiments", path, len(sections), len(reg))
	}
	out := make(map[string]string, len(reg))
	for i, d := range reg {
		out[d.ID] = sections[i]
	}
	return out, nil
}

// checkTable returns "" when a finished table is acceptable, else the
// reason it counts as a failed operation: an oracle violation, or bytes
// that differ from want when want is non-empty. The chaos and replication
// oracles report a violation as a FAIL note; the faults table reports its
// invariant oracle as a row that must read true.
func checkTable(text, want string) string {
	for _, ln := range strings.Split(text, "\n") {
		if strings.HasPrefix(ln, "note: FAIL") {
			return "FAIL note: " + strings.TrimPrefix(ln, "note: ")
		}
		if rest, ok := strings.CutPrefix(ln, "invariants after recovery"); ok {
			if f := strings.Fields(rest); len(f) == 0 || f[len(f)-1] != "true" {
				return "oracle violation: " + strings.Join(strings.Fields(ln), " ")
			}
		}
	}
	if want != "" && text != want {
		return "table differs from its reference: " + firstDiff(want, text)
	}
	return ""
}

// firstDiff names the first differing line of two tables.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var a, b string
		if i < len(w) {
			a = w[i]
		}
		if i < len(g) {
			b = g[i]
		}
		if a != b {
			return fmt.Sprintf("line %d: want %q, got %q", i+1, a, b)
		}
	}
	return "identical"
}
