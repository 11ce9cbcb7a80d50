package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// TestWireDocMatchesMarshal pins the hand-rolled persistence renderer to
// encoding/json: for already-compact documents the output is
// byte-identical to json.Marshal, and for any input the round trip
// through json.Unmarshal reproduces the request exactly — which is the
// property boot replay actually depends on.
func TestWireDocMatchesMarshal(t *testing.T) {
	compactGraph := json.RawMessage(`{"tasks":[{"id":"T1","exec":40}]}`)
	cases := map[string]ScheduleRequest{
		"minimal": {Graph: compactGraph},
		"full": {
			Algo:           "bsa",
			Graph:          compactGraph,
			System:         json.RawMessage(`{"procs":4}`),
			Het:            &HetSpec{Lo: 1, Hi: 50, Seed: 7},
			Seed:           -3,
			TimeoutMS:      1500,
			IdempotencyKey: "sweep \"quoted\" / unicode ü\n",
		},
		"topology": {Topology: json.RawMessage(`{"links":[]}`), Graph: compactGraph},
		"topo": {
			Graph: compactGraph,
			Topo:  &TopoSpecWire{Kind: "hierarchical", Procs: 8, Groups: 2, Seed: 5},
			Het:   &HetSpec{Lo: 1, Hi: 10, Seed: 3},
		},
		"absent-graph": {Algo: "heft"},
		"null-graph":   {Graph: json.RawMessage(`null`), Seed: 9},
	}
	for name, req := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := json.Marshal(&req)
			if err != nil {
				t.Fatal(err)
			}
			got := req.wireDoc()
			if !bytes.Equal(got, want) {
				t.Errorf("wireDoc = %s\njson.Marshal = %s", got, want)
			}
			var back ScheduleRequest
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatalf("round trip: %v", err)
			}
		})
	}

	// Non-compact documents are appended verbatim (that is the point), so
	// only the round trip is pinned, not byte identity.
	spaced := ScheduleRequest{Graph: json.RawMessage("{ \"tasks\" : [] }\n"), Seed: 2}
	var back ScheduleRequest
	if err := json.Unmarshal(spaced.wireDoc(), &back); err != nil {
		t.Fatalf("round trip of non-compact doc: %v", err)
	}
	var wantG, gotG any
	if err := json.Unmarshal(spaced.Graph, &wantG); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(back.Graph, &gotG); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotG, wantG) || back.Seed != 2 {
		t.Errorf("round trip changed the request: %+v", back)
	}
}

// TestBatchWireDocMatchesMarshal pins the client's batch body to
// encoding/json for compact documents, as TestWireDocMatchesMarshal does
// for single requests.
func TestBatchWireDocMatchesMarshal(t *testing.T) {
	compactGraph := json.RawMessage(`{"tasks":[{"id":"T1","exec":40}]}`)
	cases := map[string]BatchRequest{
		"no jobs":    {Graph: compactGraph},
		"empty jobs": {Jobs: []ScheduleRequest{}},
		"defaults": {
			Graph:  compactGraph,
			System: json.RawMessage(`{"procs":4}`),
			Jobs:   []ScheduleRequest{{Seed: 1}, {Seed: 2, IdempotencyKey: "k2"}},
		},
		"topo defaults": {
			Graph: compactGraph,
			Topo:  &TopoSpecWire{Kind: "ring", Procs: 8},
			Het:   &HetSpec{Lo: 1, Hi: 10, Seed: 3},
			Jobs:  []ScheduleRequest{{Algo: "heft"}, {Graph: compactGraph, Topology: json.RawMessage(`{"links":[]}`)}},
		},
	}
	for name, req := range cases {
		t.Run(name, func(t *testing.T) {
			want, err := json.Marshal(&req)
			if err != nil {
				t.Fatal(err)
			}
			if got := req.wireDoc(); !bytes.Equal(got, want) {
				t.Errorf("wireDoc = %s\njson.Marshal = %s", got, want)
			}
		})
	}
}

// TestStreamedViewsMatchMarshal pins the streamed response writers to
// encoding/json: byte-identical output for every shape a view takes,
// given a schedule document as Schedule.MarshalJSON renders it (compact,
// with json.Marshal's HTML escaping).
func TestStreamedViewsMatchMarshal(t *testing.T) {
	result := &ScheduleResponse{
		Algorithm: "bsa", Makespan: 123.5, ElapsedNS: 42, Summary: "SL <=> 123.5",
		Stats:    map[string]float64{"evaluations": 7, "cache_hits": 0.5},
		Schedule: json.RawMessage(`{"length":123.5,"tasks":[{"task":"T\u003c1","proc":"P1","start":0,"end":1}],"messages":[]}`),
	}
	errBody := &ErrorBody{Code: CodeScheduleFailed, Message: "no <schedule>", Detail: "graph_cycle"}
	views := map[string]*JobView{
		"queued":       {ID: "j1", Status: JobQueued, Algo: "bsa"},
		"done":         {ID: "j2", Status: JobDone, Algo: "bsa", Source: "j1", Result: result},
		"failed":       {ID: "j3", Status: JobFailed, Algo: "bsa", Error: errBody},
		"both":         {ID: "j4", Status: JobDone, Algo: "bsa", Result: result, Error: errBody},
		"no schedule":  {ID: "j5", Status: JobDone, Algo: "bsa", Result: &ScheduleResponse{Algorithm: "bsa"}},
		"empty source": {ID: "j6", Status: JobRunning, Algo: "heft", Source: ""},
	}
	for name, v := range views {
		t.Run(name, func(t *testing.T) {
			want, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := v.encode(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("JobView.encode = %s\njson.Marshal = %s", got.Bytes(), want)
			}
			if v.Result == nil {
				return
			}
			want, err = json.Marshal(v.Result)
			if err != nil {
				t.Fatal(err)
			}
			got.Reset()
			if err := v.Result.encode(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("ScheduleResponse.encode = %s\njson.Marshal = %s", got.Bytes(), want)
			}
		})
	}
}
