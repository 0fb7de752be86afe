package main

import (
	"net/http/httptest"

	"bytes"
	"context"
	"dynring/internal/service"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"dynring"
)

func TestParseInts(t *testing.T) {
	tests := []struct {
		give    string
		want    []int
		wantErr bool
	}{
		{give: "", want: nil},
		{give: "1,2,3", want: []int{1, 2, 3}},
		{give: " 4 , 5 ", want: []int{4, 5}},
		{give: "x", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseList(tt.give, strconv.Atoi)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseList(%q) error = %v", tt.give, err)
			continue
		}
		if len(got) != len(tt.want) {
			t.Errorf("parseList(%q) = %v, want %v", tt.give, got, tt.want)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("parseList(%q)[%d] = %d, want %d", tt.give, i, got[i], tt.want[i])
			}
		}
	}
}

func TestParseOrients(t *testing.T) {
	got, err := parseList("cw,CCW, cw", dynring.ParseOrient)
	if err != nil {
		t.Fatal(err)
	}
	want := []dynring.GlobalDir{dynring.CW, dynring.CCW, dynring.CW}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseList = %v, want %v", got, want)
		}
	}
	if _, err := parseList("up", dynring.ParseOrient); err == nil {
		t.Fatal("bad orientation accepted")
	}
	if got, err := parseList("", dynring.ParseOrient); err != nil || got != nil {
		t.Fatalf("empty input: %v, %v", got, err)
	}
}

// TestAdversarySpecLabels: parameter-bearing labels parse through
// dynring.ParseAdversary with their own parameters, parameter-free kinds
// pass bare, and unknown or out-of-range labels are refused.
func TestAdversarySpecLabels(t *testing.T) {
	for label, check := range map[string]func(dynring.AdversarySpec) bool{
		"none":                 func(s dynring.AdversarySpec) bool { return s.Kind == "none" },
		"greedy":               func(s dynring.AdversarySpec) bool { return s.Kind == "greedy" },
		"frontier":             func(s dynring.AdversarySpec) bool { return s.Kind == "frontier" },
		"prevent":              func(s dynring.AdversarySpec) bool { return s.Kind == "prevent" },
		"pin(1)":               func(s dynring.AdversarySpec) bool { return s.Kind == "pin" && s.Pin == 1 },
		"persistent(3)":        func(s dynring.AdversarySpec) bool { return s.Kind == "persistent" && s.Edge == 3 },
		"tinterval(T=4)":       func(s dynring.AdversarySpec) bool { return s.Kind == "tinterval" && s.T == 4 },
		"capped(r=3)":          func(s dynring.AdversarySpec) bool { return s.Kind == "capped" && s.R == 3 },
		"recurrent(w=5)":       func(s dynring.AdversarySpec) bool { return s.Kind == "recurrent" && s.W == 5 },
		"random(p=0.25)":       func(s dynring.AdversarySpec) bool { return s.Kind == "random" && s.P == 0.25 },
		"act(0.6)+capped(r=2)": func(s dynring.AdversarySpec) bool { return s.Kind == "capped" && s.Act == 0.6 },
		"act(0.6)+greedy":      func(s dynring.AdversarySpec) bool { return s.Kind == "greedy" && s.Act == 0.6 },
	} {
		spec, err := adversarySpec(label)
		if err != nil {
			t.Errorf("adversarySpec(%q): %v", label, err)
			continue
		}
		if !check(spec) {
			t.Errorf("adversarySpec(%q) = %+v", label, spec)
		}
	}
	for _, bad := range []string{"bogus", "capped(r=0)", "act(1.5)+greedy"} {
		if _, err := adversarySpec(bad); err == nil {
			t.Errorf("adversarySpec(%q) accepted", bad)
		}
	}
}

// TestBareKindNeedsLabel: a kind that takes a parameter must carry it. A bare
// random would otherwise run as random(p=0), and a bare tinterval has no
// phase length at all; both are refused, and the error names the label form.
func TestBareKindNeedsLabel(t *testing.T) {
	for name, form := range map[string]string{
		"random":          "random(p=…)",
		"pin":             "pin(…)",
		"persistent":      "persistent(…)",
		"tinterval":       "tinterval(T=…)",
		"capped":          "capped(r=…)",
		"recurrent":       "recurrent(w=…)",
		"act(0.7)+random": "random(p=…)",
	} {
		_, err := adversarySpec(name)
		if err == nil || !strings.Contains(err.Error(), form) {
			t.Errorf("adversarySpec(%q) = %v, want an error naming %s", name, err, form)
		}
	}
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-algo", "KnownNNoChirality", "-n", "8", "-landmark", "-1", "-adversary", "random"},
		{"-sweep", "-algos", "KnownNNoChirality", "-sizes", "8", "-landmark", "-1", "-adversaries", "tinterval,greedy"},
	} {
		if err := run(context.Background(), &out, args); err == nil {
			t.Errorf("run(%q) accepted a bare parameterized kind", args)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	ctx := context.Background()
	var out bytes.Buffer
	if err := run(ctx, &out, []string{"-algo", "KnownNNoChirality", "-n", "8", "-landmark", "-1",
		"-adversary", "random(p=0.4)", "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "outcome:") {
		t.Fatalf("missing outcome in output:\n%s", out.String())
	}
	if err := run(ctx, &out, []string{"-list"}); err != nil {
		t.Fatal(err)
	}
	if err := run(ctx, &out, []string{"-algo", "Nope", "-n", "8"}); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// TestRunJSON: single-run -json output decodes into a Result.
func TestRunJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-algo", "KnownNNoChirality",
		"-n", "8", "-landmark", "-1", "-adversary", "none", "-json"}); err != nil {
		t.Fatal(err)
	}
	var res dynring.Result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		t.Fatalf("output is not a JSON Result: %v\n%s", err, out.String())
	}
	if !res.Explored {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// TestRunSweep drives a small grid end-to-end through the CLI.
func TestRunSweep(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-sweep",
		"-algos", "KnownNNoChirality,UnconsciousExploration",
		"-sizes", "6,8", "-seeds", "1,2", "-adversaries", "none,greedy",
		"-landmark", "-1", "-orients", "cw,ccw", "-stop-explored"}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "16 of 16 scenarios in") {
		t.Fatalf("expected 16-scenario sweep summary, got:\n%s", text)
	}
	if !strings.Contains(text, "KnownNNoChirality") || !strings.Contains(text, "greedy") {
		t.Fatalf("aggregate rows missing:\n%s", text)
	}
}

// TestRunSweepDefaultAdversary: with no -adversaries axis, the sweep falls
// back to the single -adversary flag rather than running adversary-free.
func TestRunSweepDefaultAdversary(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-sweep",
		"-algos", "KnownNNoChirality", "-sizes", "8", "-landmark", "-1",
		"-adversary", "greedy"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "greedy") || strings.Contains(out.String(), "static") {
		t.Fatalf("sweep did not adopt the -adversary default:\n%s", out.String())
	}
	// -trace cannot silently vanish in sweep or JSON mode.
	if err := run(context.Background(), &out, []string{"-sweep", "-trace", "-sizes", "8"}); err == nil {
		t.Fatal("-sweep -trace accepted")
	}
	if err := run(context.Background(), &out, []string{"-json", "-trace"}); err == nil {
		t.Fatal("-json -trace accepted")
	}
}

// TestRunSweepJSON: the -sweep -json document decodes and carries one entry
// per scenario plus aggregate rows.
func TestRunSweepJSON(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-sweep",
		"-algos", "KnownNNoChirality", "-sizes", "6,8,10", "-seeds", "5",
		"-adversaries", "none", "-landmark", "-1", "-json"}); err != nil {
		t.Fatal(err)
	}
	var doc sweepJSON
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out.String())
	}
	if len(doc.Scenarios) != 3 || len(doc.Aggregate) != 3 {
		t.Fatalf("got %d scenarios / %d aggregate rows, want 3/3",
			len(doc.Scenarios), len(doc.Aggregate))
	}
	for _, s := range doc.Scenarios {
		if s.Error != "" {
			t.Fatalf("scenario %s failed: %s", s.Name, s.Error)
		}
	}
}

// TestDryRun: -dry-run prints the expanded grid with fingerprints and runs
// nothing (it must be instant even for huge budgets).
func TestDryRun(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), &out, []string{"-sweep", "-dry-run",
		"-algos", "KnownNNoChirality,UnconsciousExploration", "-sizes", "8,16",
		"-seeds", "1,2,3", "-landmark", "-1", "-adversary", "random(p=0.5)"}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "12 scenarios") {
		t.Fatalf("missing grid total:\n%s", text)
	}
	if got := strings.Count(text, "fp="); got != 12 {
		t.Fatalf("%d fingerprints, want 12:\n%s", got, text)
	}
	// The parameterized adversary label is part of every grid name.
	if !strings.Contains(text, "random(p=0.5)") {
		t.Fatalf("adversary label missing:\n%s", text)
	}
	if strings.Contains(text, "outcome") || strings.Contains(text, "rounds=") {
		t.Fatalf("dry run appears to have executed scenarios:\n%s", text)
	}

	// Single-scenario mode previews exactly the scenario single-run mode
	// executes — same seed, same fingerprint (no sweep-style derivation).
	out.Reset()
	if err := run(context.Background(), &out, []string{"-dry-run",
		"-algo", "LandmarkWithChirality", "-n", "12", "-seed", "5"}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "1 scenarios") {
		t.Fatalf("single dry run:\n%s", out.String())
	}
	want, err := (dynring.Scenario{
		Size: 12, Landmark: 0, Algorithm: "LandmarkWithChirality", Seed: 5,
		AdversaryLabel: "random(p=0.5)", NewAdversary: dynring.RandomEdgesFactory(0.5),
	}).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "fp="+want) {
		t.Fatalf("single dry-run fingerprint is not the executed scenario's (want %s):\n%s", want, out.String())
	}

	// Invalid grids still fail fast.
	if err := run(context.Background(), &out, []string{"-sweep", "-dry-run",
		"-algos", "Nope", "-sizes", "8"}); err == nil {
		t.Fatal("dry run accepted an invalid grid")
	}
}

// TestServerMode: -sweep -server submits the grid to a ringsimd service and
// renders the same report shape as local execution.
func TestServerMode(t *testing.T) {
	mgr, err := service.New(service.Options{Workers: 2, CacheSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	srv := httptest.NewServer(service.NewHandler(mgr))
	defer srv.Close()

	args := []string{"-sweep", "-algos", "KnownNNoChirality", "-sizes", "6,8",
		"-seeds", "1,2", "-landmark", "-1", "-adversary", "random(p=0.4)"}
	var remote bytes.Buffer
	if err := run(context.Background(), &remote, append(args, "-server", srv.URL)); err != nil {
		t.Fatal(err)
	}
	text := remote.String()
	if !strings.Contains(text, "submitted sw-") {
		t.Fatalf("no submission line:\n%s", text)
	}
	if !strings.Contains(text, "4 of 4 scenarios") {
		t.Fatalf("missing completion summary:\n%s", text)
	}
	// Two aggregate cells (n=6 and n=8), two seeds each.
	if !strings.Contains(text, "KnownNNoChirality") || strings.Count(text, "runs=2") != 2 {
		t.Fatalf("missing aggregate:\n%s", text)
	}

	// JSON mode decodes to the same document shape as local sweeps.
	var jsonOut bytes.Buffer
	if err := run(context.Background(), &jsonOut, append(args, "-server", srv.URL, "-json")); err != nil {
		t.Fatal(err)
	}
	var doc sweepJSON
	if err := json.Unmarshal(jsonOut.Bytes(), &doc); err != nil {
		t.Fatalf("%v:\n%s", err, jsonOut.String())
	}
	if len(doc.Scenarios) != 4 || len(doc.Aggregate) == 0 {
		t.Fatalf("remote JSON doc: %+v", doc)
	}

	// -server without -sweep is rejected; so is an unreachable server.
	var scratch bytes.Buffer
	if err := run(context.Background(), &scratch, []string{"-server", srv.URL}); err == nil {
		t.Fatal("-server accepted without -sweep")
	}
	if err := run(context.Background(), &scratch, append(args, "-server", "http://127.0.0.1:1")); err == nil {
		t.Fatal("unreachable server did not error")
	}
}
