package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// The flight-recorder spool: the in-memory ring keeps the last capacity
// events, DumpAnomaly persists the ring contents of a set of recorders as
// JSONL in one shot so a post-mortem survives the process — the "something
// just went wrong, freeze the evidence" path used by the testnet ledger
// and the chaos soaks.

// spoolRecord is the stable JSONL schema of one event. Kind travels as
// its mnemonic so dumps grep well; the numeric fields are the Event's,
// widened to fixed-size integers.
type spoolRecord struct {
	At   int64  `json:"at"`
	Kind string `json:"kind"`
	Node int32  `json:"node"`
	Flow int32  `json:"flow,omitempty"`
	Seq  int    `json:"seq,omitempty"`
	A    int    `json:"a,omitempty"`
	B    int    `json:"b,omitempty"`
	Note string `json:"note,omitempty"`
}

func recordOf(e Event) spoolRecord {
	return spoolRecord{
		At:   int64(e.At),
		Kind: e.Kind.String(),
		Node: int32(e.Node),
		Flow: int32(e.Flow),
		Seq:  e.Seq,
		A:    e.A,
		B:    e.B,
		Note: e.Note,
	}
}

// DumpAnomaly freezes the evidence after a correctness anomaly (a lost,
// duplicated or misrouted packet): for each involved node it writes the
// last lastN ring events of that node's recorder as JSONL under a fresh
// directory dir/<reason>-XXXX/node-<id>.jsonl, and returns the directory.
// lastN ≤ 0 dumps each full ring. Nodes with a nil recorder are skipped.
// The directory name is uniqued by os.MkdirTemp, so repeated anomalies in
// one run never overwrite each other.
func DumpAnomaly(dir, reason string, nodes map[int]*Recorder, lastN int) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: anomaly dir: %w", err)
	}
	out, err := os.MkdirTemp(dir, sanitize(reason)+"-")
	if err != nil {
		return "", fmt.Errorf("trace: anomaly dir: %w", err)
	}
	for id, r := range nodes {
		if r == nil {
			continue
		}
		evs := r.Events()
		if lastN > 0 && len(evs) > lastN {
			evs = evs[len(evs)-lastN:]
		}
		var buf []byte
		for _, e := range evs {
			line, err := json.Marshal(recordOf(e))
			if err != nil {
				continue
			}
			buf = append(buf, line...)
			buf = append(buf, '\n')
		}
		name := filepath.Join(out, fmt.Sprintf("node-%d.jsonl", id))
		if err := os.WriteFile(name, buf, 0o644); err != nil {
			return out, fmt.Errorf("trace: anomaly dump %s: %w", name, err)
		}
	}
	return out, nil
}

// sanitize keeps the reason filesystem-safe.
func sanitize(s string) string {
	out := make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "anomaly"
	}
	return string(out)
}
