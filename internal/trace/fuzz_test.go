package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCSV checks that arbitrary input never crashes the parser and
// that every successfully parsed trace is valid and round-trips exactly.
func FuzzReadCSV(f *testing.F) {
	f.Add("id,size,arrival,departure\n1,0.5,0,1\n")
	f.Add("id,size,arrival,departure\n1,0.5,0,1\n2,0.25,0.5,3\n")
	f.Add("id,size,arrival,departure,size2\n1,0.5,0,1,0.25\n")
	f.Add("")
	f.Add("id,size,arrival,departure\n1,NaN,0,1\n")
	f.Add("id,size,arrival,departure\n1,1e309,0,1\n")
	f.Add("id,size,arrival,departure\n-9223372036854775808,0.5,0,1\n")
	f.Fuzz(func(t *testing.T, in string) {
		l, err := readCSV(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := l.Validate(); verr != nil {
			t.Fatalf("parser accepted an invalid trace: %v", verr)
		}
		var buf bytes.Buffer
		if werr := WriteCSV(&buf, l); werr != nil {
			t.Fatalf("write-back failed: %v", werr)
		}
		back, rerr := readCSV(&buf)
		if rerr != nil {
			t.Fatalf("round trip failed: %v", rerr)
		}
		if len(back) != len(l) {
			t.Fatalf("round trip changed length: %d -> %d", len(l), len(back))
		}
	})
}

// FuzzReadJSON mirrors FuzzReadCSV for the JSON format.
func FuzzReadJSON(f *testing.F) {
	f.Add(`[{"id":1,"size":0.5,"arrival":0,"departure":1}]`)
	f.Add(`[]`)
	f.Add(`[{"id":1,"size":0.5,"sizes":[0.5,0.2],"arrival":0,"departure":1}]`)
	f.Add(`{"not":"a list"}`)
	f.Fuzz(func(t *testing.T, in string) {
		l, err := readJSON(strings.NewReader(in))
		if err != nil {
			return
		}
		if verr := l.Validate(); verr != nil {
			t.Fatalf("parser accepted an invalid trace: %v", verr)
		}
	})
}
