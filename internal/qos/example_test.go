package qos_test

import (
	"fmt"

	"servicebroker/internal/qos"
)

// ExampleThresholdPolicy reproduces the paper's admission rule with its
// published parameters: threshold 20, three classes.
func ExampleThresholdPolicy() {
	p := qos.NewThresholdPolicy(20, 3)
	for c := qos.Class1; c <= qos.Class3; c++ {
		fmt.Printf("%v: limit %d, admitted at 10 outstanding: %v\n",
			c, p.Limit(c), p.AdmitAt(c, 10, p.Threshold))
	}
	// Output:
	// QoS 1: limit 20, admitted at 10 outstanding: true
	// QoS 2: limit 13, admitted at 10 outstanding: true
	// QoS 3: limit 6, admitted at 10 outstanding: false
}

// ExampleQueue shows strict-priority scheduling: the broker always serves
// the highest class first, FIFO within a class.
func ExampleQueue() {
	q := qos.NewQueue[string](8)
	q.Push(qos.Class3, "background job")
	q.Push(qos.Class1, "premium job")
	q.Push(qos.Class2, "standard job")
	for i := 0; i < 3; i++ {
		item, class, _ := q.Pop()
		fmt.Printf("%v: %s\n", class, item)
	}
	// Output:
	// QoS 1: premium job
	// QoS 2: standard job
	// QoS 3: background job
}
