package sqldb_test

import (
	"fmt"

	"servicebroker/internal/sqldb"
)

// ExampleEngine shows the embedded SQL engine: DDL, DML, and a query.
func ExampleEngine() {
	e := sqldb.NewEngine()
	mustExec := func(sql string) *sqldb.ResultSet {
		rs, err := e.Exec(sql)
		if err != nil {
			panic(err)
		}
		return rs
	}
	mustExec("CREATE TABLE movies (id INT PRIMARY KEY, title TEXT, rating FLOAT)")
	mustExec("INSERT INTO movies VALUES (1, 'Alien', 8.5), (2, 'Dune', 6.5), (3, 'Brazil', 7.9)")
	rs := mustExec("SELECT title, rating FROM movies WHERE rating > 7 ORDER BY rating DESC")
	for _, row := range rs.Rows {
		fmt.Println(row[0], row[1])
	}
	// Output:
	// Alien 8.5
	// Brazil 7.9
}

// ExampleRepeatQuery shows the clustering directive the broker uses to ask
// the backend script to repeat one workload for a whole batch.
func ExampleRepeatQuery() {
	wrapped := sqldb.RepeatQuery("SELECT COUNT(*) FROM records", 5)
	fmt.Println(wrapped)
	sql, times := sqldb.ParseRepeat([]byte(wrapped))
	fmt.Println(string(sql), times)
	// Output:
	// /*repeat=5*/ SELECT COUNT(*) FROM records
	// SELECT COUNT(*) FROM records 5
}
