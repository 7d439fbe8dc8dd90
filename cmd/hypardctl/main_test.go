package main

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "topology.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunUsageAndUnknown(t *testing.T) {
	var out strings.Builder
	if err := run(nil, &out); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("no args: err = %v, want usage", err)
	}
	if err := run([]string{"deploy"}, &out); err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Fatalf("unknown subcommand: err = %v", err)
	}
	if err := run([]string{"validate"}, &out); err == nil || !strings.Contains(err.Error(), "-f topology.json is required") {
		t.Fatalf("missing -f: err = %v", err)
	}
	if err := run([]string{"validate", "-f", filepath.Join(t.TempDir(), "absent.json")}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestValidateAcceptsAndEmitsFlags(t *testing.T) {
	path := writeSpec(t, `{
		"vnodes": 64,
		"cacheEntries": 1024,
		"replicas": [
			{"name": "a", "addr": "127.0.0.1:8081"},
			{"name": "b", "addr": "127.0.0.1:8082"},
			{"name": "c", "addr": "127.0.0.1:8083"}
		]
	}`)
	var out strings.Builder
	if err := run([]string{"validate", "-f", path, "-flags"}, &out); err != nil {
		t.Fatalf("valid topology rejected: %v\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{
		": valid",
		"3 replicas, 64 virtual nodes each",
		"b: hypard -addr 127.0.0.1:8082 -self http://127.0.0.1:8082 " +
			"-peers http://127.0.0.1:8081,http://127.0.0.1:8082,http://127.0.0.1:8083 -vnodes 64 -cache 1024",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestValidateRejectsBadTopologies(t *testing.T) {
	cases := []struct {
		name, spec, want string
	}{
		{
			"duplicate endpoint",
			`{"replicas":[{"name":"a","addr":"10.0.0.1:8080"},{"name":"b","addr":"10.0.0.1:8080"}]}`,
			"duplicate endpoint",
		},
		{
			"over-capacity raw cache",
			`{"rawCacheBytes":2147483648,"replicas":[{"name":"a","addr":"10.0.0.1:8080"}]}`,
			"exceeds",
		},
		{
			"under-provisioned cache split",
			`{"cacheEntries":8,"replicas":[{"name":"a","addr":"10.0.0.1:8080"}]}`,
			"under-provisions",
		},
		{
			"platform level named twice",
			`{"platformsPerLevel":{"0":"hmc","00":"gpu-hbm","1":"tpu-systolic"},"replicas":[{"name":"a","addr":"10.0.0.1:8080"}]}`,
			"level 0 named twice",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run([]string{"validate", "-f", writeSpec(t, tc.spec)}, &out)
			if err == nil {
				t.Fatalf("bad topology accepted:\n%s", out.String())
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q not actionable (missing %q)", err, tc.want)
			}
		})
	}
}

func TestValidateProbe(t *testing.T) {
	healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	defer healthy.Close()

	up := writeSpec(t, `{"replicas":[{"name":"up","addr":"`+strings.TrimPrefix(healthy.URL, "http://")+`"}]}`)
	var out strings.Builder
	if err := run([]string{"validate", "-f", up, "-probe"}, &out); err != nil {
		t.Fatalf("probe of healthy replica failed: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "up (") || !strings.Contains(out.String(), "healthy in") {
		t.Fatalf("probe output missing health line:\n%s", out.String())
	}

	down := writeSpec(t, `{"replicas":[{"name":"down","addr":"127.0.0.1:1"}]}`)
	out.Reset()
	err := run([]string{"validate", "-f", down, "-probe", "-probe-timeout", "2s"}, &out)
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("probe of dead replica: err = %v, want unreachable", err)
	}
	if !strings.Contains(out.String(), "UNREACHABLE") {
		t.Fatalf("probe output missing UNREACHABLE line:\n%s", out.String())
	}
}
