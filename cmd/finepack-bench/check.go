package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"

	"finepack/internal/sim"
)

// expectedJSON holds the SHA-256 of every seed-1 operation's outcome, by
// workload. Regenerate it with `go test -run TestExpected -update`.
//
//go:embed testdata/expected_seed1.json
var expectedJSON []byte

const expectedPath = "testdata/expected_seed1.json"

// resultDigest hashes a simulation result's exported fields in
// declaration order.
func resultDigest(res *sim.Result) string {
	h := sha256.New()
	v := reflect.ValueOf(res).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() {
			fmt.Fprintf(h, "%s=%#v\n", f.Name, v.Field(i).Interface())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func bytesDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func loadExpected() (map[string]map[string]string, error) {
	var want map[string]map[string]string
	if err := json.Unmarshal(expectedJSON, &want); err != nil {
		return nil, fmt.Errorf("%s: %w", expectedPath, err)
	}
	return want, nil
}
