package exp

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/catalog.golden from the current code")

// goldenIDs are the experiments whose tables are pure functions of the
// seed: everything that runs on the virtual clock. The wall-clock addenda
// (X2's mesh half, X4) measure real sockets and cannot be pinned;
// X2's simulated half is pinned through X2Sim below.
var goldenIDs = []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "X1", "X6"}

// renderCatalog renders every deterministic table at one size, with the
// host-dependent wall(ms) cells (E2, E6) blanked before layout so column
// widths do not depend on them either.
func renderCatalog(t *testing.T, cfg Config) string {
	var b strings.Builder
	for _, id := range goldenIDs {
		e, ok := Get(id)
		if !ok {
			t.Fatalf("experiment %s missing from the catalog", id)
		}
		for _, tb := range e.Run(cfg) {
			for col, h := range tb.Header {
				if h != "wall(ms)" {
					continue
				}
				for _, row := range tb.Rows {
					if col < len(row) {
						row[col] = "-"
					}
				}
			}
			b.WriteString(tb.String())
			b.WriteString("\n")
		}
	}
	sim, err := X2Sim(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "X2Sim: nodes=%d msgs=%d bytes=%d frames=%d completion=%v\n",
		sim.Nodes, sim.Msgs, sim.Bytes, sim.Frames, sim.Completion)
	return b.String()
}

// TestCatalogGolden pins every number the deterministic experiments print,
// at both sizes: the shape tests only assert who wins, so a harness change
// that silently reorders RNG forks, shares a stateful arrival process or
// moves a SetBundle would pass them and still change every table. Run with
// -update after an intended engine change.
func TestCatalogGolden(t *testing.T) {
	var b strings.Builder
	for _, cfg := range []Config{{Quick: true, Seed: 1}, {Seed: 1}} {
		fmt.Fprintf(&b, "##### quick=%v seed=%d\n\n", cfg.Quick, cfg.Seed)
		b.WriteString(renderCatalog(t, cfg))
		b.WriteString("\n")
	}
	got := b.String()
	const path = "testdata/catalog.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("catalog diverges from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("catalog diverges from %s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// TestCatalogIDsUnique makes a duplicate ID a test failure: Get resolves
// the first match, so a second experiment under the same ID would be
// unreachable by -run.
func TestCatalogIDsUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range All() {
		if seen[e.ID] {
			t.Errorf("duplicate experiment ID %s", e.ID)
		}
		seen[e.ID] = true
	}
}
