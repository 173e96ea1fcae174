package trace

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func readLines(t *testing.T, path string) []spoolRecord {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer f.Close()
	var out []spoolRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec spoolRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		out = append(out, rec)
	}
	return out
}

func TestDumpAnomaly(t *testing.T) {
	dir := t.TempDir()
	r1, r2 := New(32), New(32)
	for i := 0; i < 20; i++ {
		r1.Record(Event{Kind: KindSubmit, Node: 1, Seq: i})
	}
	r2.Record(Event{Kind: KindFault, Node: 2, Note: "lost"})
	out, err := DumpAnomaly(dir, "lost/frames", map[int]*Recorder{1: r1, 2: r2, 3: nil}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(filepath.Base(out), "lost_frames-") {
		t.Fatalf("dump dir = %s", out)
	}
	recs1 := readLines(t, filepath.Join(out, "node-1.jsonl"))
	if len(recs1) != 8 || recs1[0].Seq != 12 || recs1[7].Seq != 19 {
		t.Fatalf("node-1 dump = %+v", recs1)
	}
	recs2 := readLines(t, filepath.Join(out, "node-2.jsonl"))
	if len(recs2) != 1 || recs2[0].Note != "lost" {
		t.Fatalf("node-2 dump = %+v", recs2)
	}
	if _, err := os.Stat(filepath.Join(out, "node-3.jsonl")); !os.IsNotExist(err) {
		t.Fatal("nil recorder produced a file")
	}
	// A second anomaly with the same reason lands in a distinct directory.
	out2, err := DumpAnomaly(dir, "lost/frames", map[int]*Recorder{2: r2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if out2 == out {
		t.Fatal("anomaly dirs collide")
	}
}
