package experiments

import (
	"fmt"
	"strings"

	"servicebroker/internal/metrics"
	"servicebroker/internal/qos"
)

// Figure7 renders the clustering sweep in the paper's Figure 7 form.
func Figure7(series *metrics.Series) string {
	var b strings.Builder
	b.WriteString("Figure 7 — Request clustering: average response time vs degree of clustering\n")
	fmt.Fprintf(&b, "%-22s%-22s\n", "degree of clustering", "avg response (ms)")
	for _, p := range series.Points {
		fmt.Fprintf(&b, "%-22g%-22.2f\n", p.X, p.Y)
	}
	best := series.MinY()
	fmt.Fprintf(&b, "minimum at degree %g (%.2f ms)\n", best.X, best.Y)
	return b.String()
}

// Figure9 renders the API vs broker processing-time comparison.
func Figure9(res *DiffResult) string {
	var b strings.Builder
	b.WriteString("Figure 9 — Processing time of API and service broker based settings\n")
	fmt.Fprintf(&b, "%-10s%-26s%-26s\n", "clients", "API (paper seconds)", "broker (paper seconds)")
	for _, p := range res.Points {
		fmt.Fprintf(&b, "%-10d%-26.2f%-26.2f\n", p.Clients, p.APITime, p.BrokerTime)
	}
	return b.String()
}

// Figure10 renders per-class processing time plus the API curve.
func Figure10(res *DiffResult) string {
	var b strings.Builder
	b.WriteString("Figure 10 — Average processing time for each QoS level (paper seconds)\n")
	fmt.Fprintf(&b, "%-10s", "clients")
	for c := 1; c <= res.Config.Classes; c++ {
		fmt.Fprintf(&b, "%-12s", qos.Class(c).String())
	}
	fmt.Fprintf(&b, "%-12s\n", "API")
	for _, p := range res.Points {
		fmt.Fprintf(&b, "%-10d", p.Clients)
		for c := 1; c <= res.Config.Classes; c++ {
			fmt.Fprintf(&b, "%-12.2f", p.ClassTime[qos.Class(c)])
		}
		fmt.Fprintf(&b, "%-12.2f\n", p.APITime)
	}
	return b.String()
}

// Table1 renders completed requests per QoS class (paper Table I).
func Table1(res *DiffResult) string {
	var b strings.Builder
	b.WriteString("Table I — Number of completed requests at each QoS level\n")
	fmt.Fprintf(&b, "%-10s", "clients")
	for c := 1; c <= res.Config.Classes; c++ {
		fmt.Fprintf(&b, "%-10s", qos.Class(c).String())
	}
	fmt.Fprintf(&b, "%-10s\n", "API")
	for _, p := range res.Points {
		fmt.Fprintf(&b, "%-10d", p.Clients)
		for c := 1; c <= res.Config.Classes; c++ {
			fmt.Fprintf(&b, "%-10d", p.ClassCompleted[qos.Class(c)])
		}
		fmt.Fprintf(&b, "%-10d\n", p.APICompleted)
	}
	return b.String()
}

// DropTable renders the drop ratios at one broker (paper Tables II-IV;
// brokerIdx is 0-based, so DropTable(res, 0) is Table II).
func DropTable(res *DiffResult, brokerIdx int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table %s — Drop ratios at broker %d\n",
		[]string{"II", "III", "IV"}[min(brokerIdx, 2)], brokerIdx+1)
	fmt.Fprintf(&b, "%-10s", "clients")
	for c := 1; c <= res.Config.Classes; c++ {
		fmt.Fprintf(&b, "%-10s", qos.Class(c).String())
	}
	b.WriteByte('\n')
	for _, p := range res.Points {
		fmt.Fprintf(&b, "%-10d", p.Clients)
		ratios := p.DropRatio[brokerIdx]
		for c := 1; c <= res.Config.Classes; c++ {
			fmt.Fprintf(&b, "%-10.3f", ratios[qos.Class(c)])
		}
		b.WriteByte('\n')
	}
	return b.String()
}
