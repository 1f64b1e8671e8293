package engine

import (
	"encoding/json"
	"testing"
)

func TestTableRoundTrips(t *testing.T) {
	for _, id := range All() {
		got, ok := Parse(id.String())
		if !ok || got != id {
			t.Fatalf("Parse(%q) = %v, %v; want %v", id.String(), got, ok, id)
		}
		data, err := json.Marshal(id)
		if err != nil {
			t.Fatal(err)
		}
		var back ID
		if err := json.Unmarshal(data, &back); err != nil || back != id {
			t.Fatalf("JSON %s round-tripped to %v, %v", data, back, err)
		}
	}
	if _, ok := Parse("trap"); ok {
		t.Fatal("Parse must match names exactly")
	}
	if err := json.Unmarshal([]byte(`"FFT"`), new(ID)); err == nil {
		t.Fatal("unknown engine name unmarshalled without error")
	}
	if s := ID(9).String(); s != "engine(9)" {
		t.Fatalf("out-of-table String() = %q", s)
	}
}

func TestOnlyLoopsIsSerialAndFlat(t *testing.T) {
	for _, id := range All() {
		loops := id == LOOPS
		if id.Serial() != loops || id.Recursive() == loops {
			t.Fatalf("%v: Serial=%v Recursive=%v", id, id.Serial(), id.Recursive())
		}
	}
	if ID(-1).Serial() || ID(-1).Recursive() {
		t.Fatal("an ID outside the table must have no properties")
	}
}
