package testnet

import (
	"strings"
	"testing"
)

func validManifestJSON() string {
	return `{
		"name": "t", "seed": 7, "rails": 2, "drop_pct": 5,
		"engine": {"rdv_retry_us": 500},
		"roles": [
			{"name": "a", "count": 2, "profile": "tcp"},
			{"name": "b", "count": 2, "profile": "mx"}
		],
		"workload": [
			{"from": "a", "to": "b", "msgs": 3, "size": {"lo": 64}}
		],
		"chaos": [
			{"at_ms": 1, "op": "partition", "group": "a", "peer": "b", "for_ms": 1}
		]
	}`
}

func TestManifestParseValid(t *testing.T) {
	m, err := Parse([]byte(validManifestJSON()))
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if m.TotalNodes() != 4 || m.Rails != 2 {
		t.Fatalf("parsed shape: %d nodes, %d rails", m.TotalNodes(), m.Rails)
	}
	if m.Engine.Bundle != "aggregate" || m.MaxEvents == 0 {
		t.Fatalf("defaults not applied: %+v", m.Engine)
	}
}

func TestManifestParseRejections(t *testing.T) {
	cases := []struct {
		name    string
		mangle  func(string) string
		wantErr string
	}{
		{"unknown field", func(s string) string {
			return strings.Replace(s, `"name": "t"`, `"nmae": "t"`, 1)
		}, "unknown field"},
		{"duplicate role", func(s string) string {
			return strings.Replace(s, `"name": "b"`, `"name": "a"`, 1)
		}, "duplicate role"},
		{"unknown profile", func(s string) string {
			return strings.Replace(s, `"profile": "mx"`, `"profile": "warp"`, 1)
		}, "unknown profile"},
		{"drop without retry", func(s string) string {
			return strings.Replace(s, `"rdv_retry_us": 500`, `"rdv_retry_us": 0`, 1)
		}, "rdv_retry_us"},
		{"unknown workload role", func(s string) string {
			return strings.Replace(s, `"from": "a"`, `"from": "zz"`, 1)
		}, "unknown role"},
		{"unknown chaos op", func(s string) string {
			return strings.Replace(s, `"op": "partition"`, `"op": "meteor"`, 1)
		}, "unknown chaos op"},
		{"unknown chaos group", func(s string) string {
			return strings.Replace(s, `"group": "a"`, `"group": "zz"`, 1)
		}, "unknown group"},
		{"rail out of range", func(s string) string {
			return strings.Replace(s, `"op": "partition"`, `"op": "rail-down", "rail": 5`, 1)
		}, "rail 5"},
		{"unknown bundle", func(s string) string {
			return strings.Replace(s, `"rdv_retry_us": 500`, `"rdv_retry_us": 500, "bundle": "yolo"`, 1)
		}, "yolo"},
		{"zero msgs", func(s string) string {
			return strings.Replace(s, `"msgs": 3`, `"msgs": 0`, 1)
		}, "msgs"},
		{"bad size dist", func(s string) string {
			return strings.Replace(s, `{"lo": 64}`, `{"dist": "gauss", "lo": 64}`, 1)
		}, "size dist"},
		{"drop over 100", func(s string) string {
			return strings.Replace(s, `"drop_pct": 5`, `"drop_pct": 120`, 1)
		}, "drop_pct"},
	}
	for _, c := range cases {
		_, err := Parse([]byte(c.mangle(validManifestJSON())))
		if err == nil {
			t.Errorf("%s: Parse accepted the manifest", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

// TestManifestRejectsNegativeEngineKey: a negative engine key fails at
// Parse — the knobs by the engine's own rule — with the key named, instead
// of passing and failing in core.New mid-boot. Drop is off so the retry
// window's own check is what trips.
func TestManifestRejectsNegativeEngineKey(t *testing.T) {
	for _, key := range []string{"lookahead", "nagle_us", "rdv_threshold", "rdv_retry_us", "rdv_retry_max"} {
		t.Run(key, func(t *testing.T) {
			s := strings.Replace(validManifestJSON(), `"drop_pct": 5`, `"drop_pct": 0`, 1)
			s = strings.Replace(s, `"rdv_retry_us": 500`, `"`+key+`": -1`, 1)
			if _, err := Parse([]byte(s)); err == nil || !strings.Contains(err.Error(), "engine."+key) {
				t.Fatalf("Parse = %v, want an error naming engine.%s", err, key)
			}
		})
	}
}

// Node IDs are assigned to roles sorted by name, so file order cannot move
// a node between groups — the property the reorder-stability battery test
// verifies end to end.
func TestManifestGroupsIndependentOfFileOrder(t *testing.T) {
	a, err := Parse([]byte(validManifestJSON()))
	if err != nil {
		t.Fatal(err)
	}
	swapped := strings.Replace(strings.Replace(strings.Replace(validManifestJSON(),
		`"name": "a", "count": 2, "profile": "tcp"`, `"name": "TMP"`, 1),
		`"name": "b", "count": 2, "profile": "mx"`, `"name": "a", "count": 2, "profile": "tcp"`, 1),
		`"name": "TMP"`, `"name": "b", "count": 2, "profile": "mx"`, 1)
	b, err := Parse([]byte(swapped))
	if err != nil {
		t.Fatal(err)
	}
	ga, gb := a.Groups(), b.Groups()
	for _, role := range []string{"a", "b"} {
		if len(ga[role]) != len(gb[role]) {
			t.Fatalf("group %q sizes differ", role)
		}
		for i := range ga[role] {
			if ga[role][i] != gb[role][i] {
				t.Fatalf("group %q differs under file reordering: %v vs %v", role, ga[role], gb[role])
			}
		}
	}
}

func TestManifestLoadMissingFile(t *testing.T) {
	if _, err := Load("testdata/no-such-manifest.json"); err == nil {
		t.Fatal("Load of missing file succeeded")
	}
}
