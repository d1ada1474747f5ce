package telemetry

import (
	"bytes"
	"testing"
)

// TestWriteCSV pins the CSV shape amrquery -csv prints: a header row of
// column names, then one record per row, integers in base 10, floats in
// their shortest 'g' form, strings as stored.
func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleTable().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "step,rank,wait,policy\n0,0,1.5,lpt\n0,1,2.5,lpt\n1,0,3,cdp\n1,1,5,cdp\n2,0,0.5,lpt\n"
	if buf.String() != want {
		t.Fatalf("WriteCSV:\n%s\nwant:\n%s", buf.String(), want)
	}
}
