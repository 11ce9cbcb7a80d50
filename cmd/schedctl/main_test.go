package main

import (
	"testing"

	"repro/sched/service"
)

// TestClusterLine pins the cluster view's line format: the self marker,
// token, address and probe health, followed by the failure detector's
// verdict when the answering node runs one.
func TestClusterLine(t *testing.T) {
	for _, tc := range []struct {
		n    service.NodeView
		want string
	}{
		{service.NodeView{Token: "n1", Addr: "127.0.0.1:1", Self: true, Healthy: true},
			"* n1         127.0.0.1:1              healthy"},
		{service.NodeView{Token: "n1", Addr: "127.0.0.1:1", Self: true, Healthy: true, State: "alive"},
			"* n1         127.0.0.1:1              healthy     alive"},
		{service.NodeView{Token: "n2", Addr: "127.0.0.1:2", Healthy: true, State: "suspect"},
			"  n2         127.0.0.1:2              healthy     suspect"},
		{service.NodeView{Token: "n3", Addr: "127.0.0.1:3", State: "dead"},
			"  n3         127.0.0.1:3              unreachable dead"},
		{service.NodeView{Token: "n3", Addr: "127.0.0.1:3"},
			"  n3         127.0.0.1:3              unreachable"},
	} {
		if got := clusterLine(tc.n); got != tc.want {
			t.Errorf("clusterLine(%+v) = %q, want %q", tc.n, got, tc.want)
		}
	}
}
