package sqldb

import "testing"

// BenchmarkMicroSQLRangeQuery measures the benchmark's range read, a
// category lookup plus a score range re-checked on the category's ~420 rows,
// against the 42,000-row fixture on the path a served query takes: exec
// reads the statement's bytes and renders the reply body into a reused
// buffer, as Server.respond does. The root package's BenchmarkMicroSQLQuery
// measures Exec, which also boxes its result; this path cannot be reached
// from outside the package without a loopback round trip.
//
//	go test -run XXX -bench=MicroSQLRangeQuery -benchmem ./internal/sqldb
func BenchmarkMicroSQLRangeQuery(b *testing.B) {
	e := NewEngine()
	if err := LoadRecords(e, PaperRecordCount); err != nil {
		b.Fatal(err)
	}
	q := []byte("SELECT id, name, score FROM records WHERE category = 62 AND score BETWEEN 389 AND 427")
	var body []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := sink{body: body[:0]}
		if err := exec(e, q, &out); err != nil {
			b.Fatal(err)
		}
		body = out.body
	}
}
