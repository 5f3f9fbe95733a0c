package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecodeSpec feeds arbitrary bytes to the strict spec decoder. No
// input may panic it, and an accepted spec must survive re-encoding: its
// json.Marshal bytes decode again, and a second round trip reproduces
// them exactly. (The first round may differ from the input, for example
// by dropping an empty axis list, but after that the form is fixed.)
func FuzzDecodeSpec(f *testing.F) {
	for _, path := range []string{
		filepath.Join("..", "..", "experiments", "core.json"),
		filepath.Join("..", "..", "experiments", "smoke.json"),
		filepath.Join("testdata", "golden.json"),
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		first, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not encode: %v", err)
		}
		again, err := Decode(bytes.NewReader(first))
		if err != nil {
			t.Fatalf("re-encoded spec is refused: %v\n%s", err, first)
		}
		second, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("decoded re-encoding does not encode: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("second round trip changed the bytes:\n%s\n%s", first, second)
		}
	})
}
