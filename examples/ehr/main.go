// EHR: the paper's §1 motivating scenario. A healthcare provider maintains
// electronic health records for a cohort of patients; analytics teams score
// subsets of patients on their own branches, cohort snapshots are pulled for
// training, and per-patient histories support audits.
//
// The run demonstrates: (1) branched concurrent analytics with record-level
// dedup, (2) partial-version retrieval of a cohort slice, (3) evolution
// history for auditing a single patient, and (4) the storage/span win of the
// Bottom-Up partitioner over naive placement.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"rstore"
)

const patients = 400

func patientKey(i int) rstore.Key { return rstore.Key(fmt.Sprintf("patient-%04d", i)) }

func ehr(rng *rand.Rand, id int, visits int, risk float64) []byte {
	return []byte(fmt.Sprintf(
		`{"id":%d,"visits":%d,"risk":%.3f,"vitals":{"bp":"%d/%d","hr":%d},"hist":"%x"}`,
		id, visits, risk, 100+rng.Intn(40), 60+rng.Intn(30), 55+rng.Intn(50), rng.Int63(),
	))
}

func main() {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	st, err := rstore.Open(ctx, rstore.Config{
		ChunkCapacity: 8 << 10,
		SubChunkK:     4, // compress up to 4 versions of a patient record together
		BatchSize:     8,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Intake: the full patient roster.
	intake := rstore.Change{Puts: map[rstore.Key][]byte{}}
	for i := 0; i < patients; i++ {
		intake.Puts[patientKey(i)] = ehr(rng, i, 1, 0)
	}
	v0, err := st.Commit(ctx, rstore.NoParent, intake)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("intake: %d patients in version %d\n", patients, v0)

	// Monthly visit updates on the main branch: each month a small random
	// subset of patients has new measurements (the paper: "the number of
	// updates per version usually remains restricted to a small percentage").
	main := v0
	for month := 1; month <= 6; month++ {
		ch := rstore.Change{Puts: map[rstore.Key][]byte{}}
		for i := 0; i < patients/20; i++ {
			p := rng.Intn(patients)
			ch.Puts[patientKey(p)] = ehr(rng, p, 1+month, 0)
		}
		main, err = st.Commit(ctx, main, ch)
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := st.SetBranch(ctx, "main", main); err != nil {
		log.Fatal(err)
	}

	// Two analytics teams branch from the same snapshot and write model
	// scores into their cohorts' records — decentralized, branched updates.
	cardio := main
	for round := 0; round < 3; round++ {
		ch := rstore.Change{Puts: map[rstore.Key][]byte{}}
		for p := 0; p < patients; p += 7 { // the cardiology cohort
			ch.Puts[patientKey(p)] = ehr(rng, p, 7, 0.1*float64(round+1))
		}
		cardio, err = st.Commit(ctx, cardio, ch)
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := st.SetBranch(ctx, "cardio-model", cardio); err != nil {
		log.Fatal(err)
	}

	diabetes := main
	for round := 0; round < 2; round++ {
		ch := rstore.Change{Puts: map[rstore.Key][]byte{}}
		for p := 3; p < patients; p += 11 { // the diabetes cohort
			ch.Puts[patientKey(p)] = ehr(rng, p, 7, 0.05*float64(round+1))
		}
		diabetes, err = st.Commit(ctx, diabetes, ch)
		if err != nil {
			log.Fatal(err)
		}
	}
	if err := st.SetBranch(ctx, "diabetes-model", diabetes); err != nil {
		log.Fatal(err)
	}

	// Periodic full repartitioning (offline Bottom-Up over everything).
	if err := st.Materialize(ctx); err != nil {
		log.Fatal(err)
	}

	// (1) Reproducibility: pull the exact snapshot the cardio model was
	// trained on — even though main and diabetes moved on.
	recs, stats, err := st.GetVersionAll(ctx, cardio)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncardio training snapshot v%d: %d records, span=%d chunks, %d requests, %.1fKB fetched\n",
		cardio, len(recs), stats.Span, stats.Requests, float64(stats.BytesRead)/(1<<10))

	// (2) Partial version retrieval: one ward's slice of the roster.
	lo, hi := patientKey(100), patientKey(150)
	ward, stats2, err := st.GetRangeAll(ctx, rstore.KeyRange(lo, hi), main)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ward slice [%s, %s) at main: %d records, span=%d\n", lo, hi, len(ward), stats2.Span)

	// (3) Audit: the full history of one patient across every branch.
	history, stats3, err := st.GetHistoryAll(ctx, patientKey(7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("audit of %s: %d record revisions (key span=%d):\n", patientKey(7), len(history), stats3.Span)
	for _, r := range history {
		fmt.Printf("  v%-3d %.60s...\n", r.CK.Version, r.Value)
	}

	// (4) Storage accounting: records shared by branches are stored once.
	kvStats := st.KV().Stats(ctx)
	fmt.Printf("\nversions=%d chunks=%d stored=%.2fMB (deduplicated, sub-chunk compressed)\n",
		st.NumVersions(), st.NumChunks(), float64(kvStats.BytesStored)/(1<<20))
	if err := st.Close(); err != nil {
		log.Fatal(err)
	}
}
