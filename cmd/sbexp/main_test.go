package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"servicebroker/internal/experiments"
	"servicebroker/internal/qos"
)

// stub is an experiment that records that it ran.
func stub(name string, ran *[]string, rep report) experiment {
	return experiment{name, "stub " + name, func(context.Context, *env) (report, error) {
		*ran = append(*ran, name)
		return rep, nil
	}}
}

func TestTableNamesUnique(t *testing.T) {
	seen := map[string]bool{"all": true}
	for _, x := range table {
		if seen[x.name] {
			t.Errorf("experiment name %q is taken", x.name)
		}
		seen[x.name] = true
		if x.desc == "" || x.run == nil {
			t.Errorf("experiment %q lacks a description or a run function", x.name)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	var ran []string
	tbl := []experiment{
		stub("one", &ran, report{Result: 1}),
		stub("two", &ran, report{Result: 2}),
		stub("three", &ran, report{Result: 3}),
	}
	if err := run(context.Background(), tbl, "all", &env{}, "", ""); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ran, ","); got != "one,two,three" {
		t.Errorf("all ran %q, want every entry in table order", got)
	}

	ran = nil
	if err := run(context.Background(), tbl, "two", &env{}, "", ""); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(ran, ","); got != "two" {
		t.Errorf("-exp two ran %q", got)
	}

	ran = nil
	err := run(context.Background(), tbl, "obs", &env{}, "", "")
	if err == nil || len(ran) != 0 {
		t.Fatalf("unknown name: err=%v, ran=%v", err, ran)
	}
	for _, name := range []string{`"obs"`, "all", "one", "two", "three"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not mention %s", err, name)
		}
	}
}

func TestRunWritesArtifactAndFailsOnCheck(t *testing.T) {
	var ran []string
	tbl := []experiment{
		stub("good", &ran, report{
			Result: rows{{"x": 1, "y": 2.5}},
			text:   "rendered\n",
			Checks: []check{{"holds", true, "1 > 0"}},
			csv:    "x,y\n1,2.5\n",
		}),
		stub("bad", &ran, report{
			Result: map[string]int{"n": 7},
			Checks: []check{{"holds", true, "fine"}, {"breaks", false, "measured 3, want 2"}},
		}),
		stub("bare", &ran, report{Result: "no checks"}),
	}
	dir := filepath.Join(t.TempDir(), "out")
	err := run(context.Background(), tbl, "all", &env{quick: true}, dir, "")
	if err == nil || !strings.Contains(err.Error(), "bad: breaks: measured 3, want 2") {
		t.Fatalf("failed check not reported: %v", err)
	}
	if len(ran) != 3 {
		t.Errorf("a failed check stopped the loop: ran %v", ran)
	}

	data, err := os.ReadFile(filepath.Join(dir, "BENCH_experiments.json"))
	if err != nil {
		t.Fatal(err)
	}
	var art struct {
		GitSHA      *string `json:"git_sha"`
		GoVersion   *string `json:"go_version"`
		GOMAXPROCS  *int    `json:"gomaxprocs"`
		NumCPU      *int    `json:"nproc"`
		Quick       *bool   `json:"quick"`
		Experiments map[string]struct {
			Checks []struct {
				Name string `json:"name"`
				OK   bool   `json:"ok"`
			} `json:"checks"`
			Result json.RawMessage `json:"result"`
		} `json:"experiments"`
	}
	if err := json.Unmarshal(data, &art); err != nil {
		t.Fatal(err)
	}
	if art.GitSHA == nil || art.GoVersion == nil || art.GOMAXPROCS == nil || art.NumCPU == nil || art.Quick == nil {
		t.Fatalf("envelope field missing in %s", data)
	}
	if *art.GoVersion == "" || *art.GOMAXPROCS < 1 || *art.NumCPU < 1 || !*art.Quick {
		t.Errorf("envelope = %q %d %d quick=%v", *art.GoVersion, *art.GOMAXPROCS, *art.NumCPU, *art.Quick)
	}
	bad := art.Experiments["bad"]
	if len(bad.Checks) != 2 || bad.Checks[0].Name != "holds" || !bad.Checks[0].OK ||
		bad.Checks[1].Name != "breaks" || bad.Checks[1].OK {
		t.Errorf("bad.checks = %+v", bad.Checks)
	}
	if string(bad.Result) == "" || !strings.Contains(string(bad.Result), `"n": 7`) {
		t.Errorf("bad.result = %s", bad.Result)
	}
	if !strings.Contains(string(data), `"checks": []`) {
		t.Errorf("an experiment without checks should carry an empty list:\n%s", data)
	}
	if len(art.Experiments) != 3 {
		t.Errorf("artifact has %d entries, want 3", len(art.Experiments))
	}

	csv, err := os.ReadFile(filepath.Join(dir, "good.csv"))
	if err != nil || string(csv) != "x,y\n1,2.5\n" {
		t.Errorf("good.csv = %q, %v", csv, err)
	}
	if _, err := os.Stat(filepath.Join(dir, "bad.csv")); err == nil {
		t.Error("an experiment without CSV data wrote a CSV")
	}
}

func TestRunWritesNothingWithoutOut(t *testing.T) {
	dir := t.TempDir()
	back, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(back)
	var ran []string
	tbl := []experiment{stub("only", &ran, report{Result: rows{{"x": 1}}, csv: "x\n1\n"})}
	if err := run(context.Background(), tbl, "only", &env{}, "", ""); err != nil {
		t.Fatal(err)
	}
	left, err := os.ReadDir(dir)
	if err != nil || len(left) != 0 {
		t.Errorf("run without -out left %v behind (%v)", left, err)
	}
}

// The CSV and the artifact rows of a figure or table are one projection:
// x column first, then the view's columns in name order.
func TestDiffViewRowsAndCSV(t *testing.T) {
	e := &env{diff: &experiments.DiffResult{
		Config: experiments.DifferentiationConfig{Classes: 3},
		Points: []experiments.DiffPoint{{
			Clients: 30, APITime: 9.5, BrokerTime: 4.2, APICompleted: 740,
			ClassTime:      map[qos.Class]float64{1: 6.1, 2: 4.0, 3: 2.2},
			ClassCompleted: map[qos.Class]int64{1: 100, 2: 200, 3: 300},
			DropRatio: map[int]map[qos.Class]float64{
				0: {1: 0, 2: 0.1, 3: 0.5},
				1: {1: 0, 2: 0.2, 3: 0.6},
				2: {1: 0.05, 2: 0.3, 3: 0.7},
			},
		}},
	}}
	want := map[string]string{
		"fig9":   "clients,api_s,broker_s\n30,9.5,4.2\n",
		"fig10":  "clients,api_s,qos1_s,qos2_s,qos3_s\n30,9.5,6.1,4,2.2\n",
		"table1": "clients,api_completed,qos1_completed,qos2_completed,qos3_completed\n30,740,100,200,300\n",
		"table2": "clients,qos1_dropratio,qos2_dropratio,qos3_dropratio\n30,0,0.1,0.5\n",
		"table3": "clients,qos1_dropratio,qos2_dropratio,qos3_dropratio\n30,0,0.2,0.6\n",
		"table4": "clients,qos1_dropratio,qos2_dropratio,qos3_dropratio\n30,0.05,0.3,0.7\n",
	}
	for _, x := range table {
		csv, ok := want[x.name]
		if !ok {
			continue
		}
		rep, err := x.run(context.Background(), e)
		if err != nil {
			t.Fatal(err)
		}
		if rep.csv != csv {
			t.Errorf("%s csv = %q, want %q", x.name, rep.csv, csv)
		}
		data, ok := rep.Result.(rows)
		if !ok || len(data) != 1 || data[0]["clients"] != 30 {
			t.Errorf("%s result = %#v", x.name, rep.Result)
		}
		if !strings.Contains(rep.text, "30") {
			t.Errorf("%s rendering has no data row:\n%s", x.name, rep.text)
		}
		if (x.name == "fig9") != (len(rep.Checks) == 2) {
			t.Errorf("%s has %d checks", x.name, len(rep.Checks))
		}
	}
}
