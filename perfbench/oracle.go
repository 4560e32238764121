package main

import (
	"fmt"

	"disco/internal/loadgen"
	"disco/internal/proto"
	"disco/internal/serving"
)

// maxOracleStatements bounds the distinct statements the oracle replays
// in one run; samples beyond it are not checked.
const maxOracleStatements = 1500

// oracleResult is the outcome of checking a run's sampled answers.
type oracleResult struct {
	checked    int // samples compared
	statements int // distinct statements replayed
	mismatches []string
}

// checkOracle replays each distinct sampled statement sequentially on a
// fresh demo federation with feedback off, and compares the
// order-independent row digests. Plans may differ from the ones the
// loaded server picked; the rows must not.
func checkOracle(samples []sample) (oracleResult, error) {
	var out oracleResult
	fed, err := serving.NewDemoFederation(serving.Options{Parts: paperParts})
	if err != nil {
		return out, err
	}
	digests := make(map[string]uint64)
	for _, s := range samples {
		want, ok := digests[s.sql]
		if !ok {
			if len(digests) >= maxOracleStatements {
				continue
			}
			want, err = oracleDigest(fed, s.sql)
			if err != nil {
				return out, err
			}
			digests[s.sql] = want
		}
		out.checked++
		if s.hash != want {
			out.mismatches = append(out.mismatches, s.sql)
		}
	}
	out.statements = len(digests)
	return out, nil
}

func oracleDigest(fed *serving.Federation, sql string) (uint64, error) {
	res, err := fed.Med.Query(sql)
	if err != nil {
		return 0, fmt.Errorf("oracle: %s: %w", sql, err)
	}
	rows := make([][]any, len(res.Rows))
	for i, row := range res.Rows {
		rows[i] = proto.EncodeRow(row)
	}
	return loadgen.HashRows(rows), nil
}
