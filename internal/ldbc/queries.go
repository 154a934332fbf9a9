package ldbc

import (
	"fmt"
	"math/rand"

	"poseidon/internal/query"
)

// QueryID names one workload query, e.g. SR 2-post or IU 6.
type QueryID struct {
	Num     int
	Variant string // "", "post" or "cmt"
}

// Name renders the paper's figure labels ("1", "2-post", ...).
func (q QueryID) Name() string {
	if q.Variant == "" {
		return fmt.Sprint(q.Num)
	}
	return fmt.Sprintf("%d-%s", q.Num, q.Variant)
}

// SRQueries lists the Interactive Short Read queries of Fig 5/7: message
// queries come in post and comment (cmt) subclasses.
func SRQueries() []QueryID {
	return []QueryID{
		{1, ""},
		{2, "post"}, {2, "cmt"},
		{3, ""},
		{4, "post"}, {4, "cmt"},
		{5, "post"}, {5, "cmt"},
		{6, "post"}, {6, "cmt"},
		{7, "post"}, {7, "cmt"},
	}
}

// IUQueries lists the Interactive Update queries of Fig 6/9.
func IUQueries() []QueryID {
	out := make([]QueryID, 8)
	for i := range out {
		out[i] = QueryID{Num: i + 1}
	}
	return out
}

// msgLabel maps a variant to its node label.
func msgLabel(variant string) string {
	if variant == "cmt" {
		return "Comment"
	}
	return "Post"
}

// personAccess builds the access path for a person by business id bound
// to param "id": an IndexScan when indexes are enabled, otherwise a
// label-scan plus filter (the paper's -s/-p configurations).
func access(label string, useIndex bool, param string) query.Op {
	if useIndex {
		return &query.IndexScan{Label: label, Key: "id", Value: &query.Param{Name: param}}
	}
	return &query.Filter{
		Input: &query.NodeScan{Label: label},
		Pred:  &query.Cmp{Op: query.Eq, L: &query.Prop{Col: 0, Key: "id"}, R: &query.Param{Name: param}},
	}
}

// SRPlan builds the graph-algebra plan for an SR query. Parameters: "id"
// binds the person id (SR1-3) or message id (SR4-7).
func SRPlan(q QueryID, useIndex bool) (*query.Plan, error) {
	L := msgLabel(q.Variant)
	switch q.Num {
	case 1:
		// Person profile + city: person -[isLocatedIn]-> city.
		return &query.Plan{Root: &query.Project{
			Input: &query.GetNode{
				Input:  &query.Expand{Input: access("Person", useIndex, "id"), Col: 0, Dir: query.Out, RelLabel: "isLocatedIn"},
				RelCol: 1, End: query.Dst,
			},
			Cols: []query.Expr{
				&query.Prop{Col: 0, Key: "firstName"},
				&query.Prop{Col: 0, Key: "lastName"},
				&query.Prop{Col: 0, Key: "birthday"},
				&query.Prop{Col: 0, Key: "locationIP"},
				&query.Prop{Col: 0, Key: "browserUsed"},
				&query.Prop{Col: 2, Key: "id"},
				&query.Prop{Col: 0, Key: "gender"},
				&query.Prop{Col: 0, Key: "creationDate"},
			},
		}}, nil

	case 2:
		// Last 10 messages of a person: person <-[hasCreator]- message.
		return &query.Plan{Root: &query.Project{
			Input: &query.OrderBy{
				Input: &query.GetNode{
					Input:  &query.Expand{Input: access("Person", useIndex, "id"), Col: 0, Dir: query.In, RelLabel: "hasCreator"},
					RelCol: 1, End: query.Src, Label: L,
				},
				Key: &query.Prop{Col: 2, Key: "creationDate"}, Desc: true, Limit: 10,
			},
			Cols: []query.Expr{
				&query.Prop{Col: 2, Key: "id"},
				&query.Prop{Col: 2, Key: "content"},
				&query.Prop{Col: 2, Key: "creationDate"},
			},
		}}, nil

	case 3:
		// Friends of a person with friendship date, newest first.
		return &query.Plan{Root: &query.Project{
			Input: &query.OrderBy{
				Input: &query.GetNode{
					Input:  &query.Expand{Input: access("Person", useIndex, "id"), Col: 0, Dir: query.Both, RelLabel: "knows"},
					RelCol: 1, End: query.Other, OtherCol: 0,
				},
				Key: &query.Prop{Col: 1, Key: "creationDate"}, Desc: true,
			},
			Cols: []query.Expr{
				&query.Prop{Col: 2, Key: "id"},
				&query.Prop{Col: 2, Key: "firstName"},
				&query.Prop{Col: 2, Key: "lastName"},
				&query.Prop{Col: 1, Key: "creationDate"},
			},
		}}, nil

	case 4:
		// Message content.
		return &query.Plan{Root: &query.Project{
			Input: access(L, useIndex, "id"),
			Cols: []query.Expr{
				&query.Prop{Col: 0, Key: "creationDate"},
				&query.Prop{Col: 0, Key: "content"},
			},
		}}, nil

	case 5:
		// Message creator.
		return &query.Plan{Root: &query.Project{
			Input: &query.GetNode{
				Input:  &query.Expand{Input: access(L, useIndex, "id"), Col: 0, Dir: query.Out, RelLabel: "hasCreator"},
				RelCol: 1, End: query.Dst,
			},
			Cols: []query.Expr{
				&query.Prop{Col: 2, Key: "id"},
				&query.Prop{Col: 2, Key: "firstName"},
				&query.Prop{Col: 2, Key: "lastName"},
			},
		}}, nil

	case 6:
		// Forum of a message + moderator. Posts are contained directly;
		// comments first resolve their post via replyOf.
		var msgToPost query.Op = access(L, useIndex, "id")
		post := 0
		if q.Variant == "cmt" {
			msgToPost = &query.GetNode{
				Input:  &query.Expand{Input: msgToPost, Col: 0, Dir: query.Out, RelLabel: "replyOf"},
				RelCol: 1, End: query.Dst,
			}
			post = 2
		}
		return &query.Plan{Root: &query.Project{
			Input: &query.GetNode{
				Input: &query.Expand{
					Input: &query.GetNode{
						Input:  &query.Expand{Input: msgToPost, Col: post, Dir: query.In, RelLabel: "containerOf"},
						RelCol: post + 1, End: query.Src,
					},
					Col: post + 2, Dir: query.Out, RelLabel: "hasModerator",
				},
				RelCol: post + 3, End: query.Dst,
			},
			Cols: []query.Expr{
				&query.Prop{Col: post + 2, Key: "id"},
				&query.Prop{Col: post + 2, Key: "title"},
				&query.Prop{Col: post + 4, Key: "id"},
				&query.Prop{Col: post + 4, Key: "firstName"},
				&query.Prop{Col: post + 4, Key: "lastName"},
			},
		}}, nil

	case 7:
		// Replies to a message with their authors and the author's city —
		// the longest SR pipeline (posts have direct replies; comments
		// have none under the depth-1 generator, matching their small
		// result in the paper).
		return &query.Plan{Root: &query.Project{
			Input: &query.OrderBy{
				Input: &query.GetNode{
					Input: &query.Expand{
						Input: &query.GetNode{
							Input:  &query.Expand{Input: access(L, useIndex, "id"), Col: 0, Dir: query.In, RelLabel: "replyOf"},
							RelCol: 1, End: query.Src,
						},
						Col: 2, Dir: query.Out, RelLabel: "hasCreator",
					},
					RelCol: 3, End: query.Dst,
				},
				Key: &query.Prop{Col: 2, Key: "creationDate"}, Desc: true,
			},
			Cols: []query.Expr{
				&query.Prop{Col: 2, Key: "id"},
				&query.Prop{Col: 2, Key: "content"},
				&query.Prop{Col: 2, Key: "creationDate"},
				&query.Prop{Col: 4, Key: "id"},
				&query.Prop{Col: 4, Key: "firstName"},
				&query.Prop{Col: 4, Key: "lastName"},
			},
		}}, nil

	default:
		return nil, fmt.Errorf("ldbc: unknown SR query %d", q.Num)
	}
}

// IUPlan builds the plan for an Interactive Update query. Fresh entities
// take their ids and payloads from parameters; existing entities are
// located by business id through NodeLookup (indexed) or the access path.
func IUPlan(q QueryID, useIndex bool) (*query.Plan, error) {
	if !useIndex {
		// Scan-based variants replace the leaf access path only; inner
		// NodeLookups require indexes (as in the paper, IU always ran
		// with index support).
		return nil, fmt.Errorf("ldbc: IU queries require index support")
	}
	switch q.Num {
	case 1:
		// Add person + isLocatedIn city + hasInterest tag.
		return &query.Plan{Root: &query.CreateRel{
			Input: &query.NodeLookup{
				Input: &query.CreateRel{
					Input: &query.NodeLookup{
						Input: &query.CreateNode{Label: "Person", Props: []query.PropSpec{
							{Key: "id", Val: &query.Param{Name: "personId"}},
							{Key: "firstName", Val: &query.Param{Name: "firstName"}},
							{Key: "lastName", Val: &query.Param{Name: "lastName"}},
							{Key: "gender", Val: &query.Param{Name: "gender"}},
							{Key: "birthday", Val: &query.Param{Name: "birthday"}},
							{Key: "creationDate", Val: &query.Param{Name: "creationDate"}},
							{Key: "locationIP", Val: &query.Param{Name: "locationIP"}},
							{Key: "browserUsed", Val: &query.Param{Name: "browserUsed"}},
						}},
						Label: "City", Key: "id", Value: &query.Param{Name: "cityId"},
					},
					SrcCol: 0, DstCol: 1, Label: "isLocatedIn",
				},
				Label: "Tag", Key: "id", Value: &query.Param{Name: "tagId"},
			},
			SrcCol: 0, DstCol: 3, Label: "hasInterest",
		}}, nil

	case 2:
		// Add like to post.
		return &query.Plan{Root: &query.CreateRel{
			Input: &query.NodeLookup{
				Input: access("Person", true, "personId"),
				Label: "Post", Key: "id", Value: &query.Param{Name: "postId"},
			},
			SrcCol: 0, DstCol: 1, Label: "likes",
			Props: []query.PropSpec{{Key: "creationDate", Val: &query.Param{Name: "creationDate"}}},
		}}, nil

	case 3:
		// Add like to comment.
		return &query.Plan{Root: &query.CreateRel{
			Input: &query.NodeLookup{
				Input: access("Person", true, "personId"),
				Label: "Comment", Key: "id", Value: &query.Param{Name: "commentId"},
			},
			SrcCol: 0, DstCol: 1, Label: "likes",
			Props: []query.PropSpec{{Key: "creationDate", Val: &query.Param{Name: "creationDate"}}},
		}}, nil

	case 4:
		// Add forum + moderator.
		return &query.Plan{Root: &query.CreateRel{
			Input: &query.NodeLookup{
				Input: &query.CreateNode{Label: "Forum", Props: []query.PropSpec{
					{Key: "id", Val: &query.Param{Name: "forumId"}},
					{Key: "title", Val: &query.Param{Name: "title"}},
					{Key: "creationDate", Val: &query.Param{Name: "creationDate"}},
				}},
				Label: "Person", Key: "id", Value: &query.Param{Name: "moderatorId"},
			},
			SrcCol: 0, DstCol: 1, Label: "hasModerator",
		}}, nil

	case 5:
		// Add forum membership.
		return &query.Plan{Root: &query.CreateRel{
			Input: &query.NodeLookup{
				Input: access("Forum", true, "forumId"),
				Label: "Person", Key: "id", Value: &query.Param{Name: "personId"},
			},
			SrcCol: 0, DstCol: 1, Label: "hasMember",
			Props: []query.PropSpec{{Key: "joinDate", Val: &query.Param{Name: "joinDate"}}},
		}}, nil

	case 6:
		// Add post + hasCreator + containerOf.
		return &query.Plan{Root: &query.CreateRel{
			Input: &query.NodeLookup{
				Input: &query.CreateRel{
					Input: &query.NodeLookup{
						Input: &query.CreateNode{Label: "Post", Props: []query.PropSpec{
							{Key: "id", Val: &query.Param{Name: "postId"}},
							{Key: "content", Val: &query.Param{Name: "content"}},
							{Key: "creationDate", Val: &query.Param{Name: "creationDate"}},
							{Key: "browserUsed", Val: &query.Param{Name: "browserUsed"}},
							{Key: "length", Val: &query.Param{Name: "length"}},
						}},
						Label: "Person", Key: "id", Value: &query.Param{Name: "authorId"},
					},
					SrcCol: 0, DstCol: 1, Label: "hasCreator",
				},
				Label: "Forum", Key: "id", Value: &query.Param{Name: "forumId"},
			},
			SrcCol: 3, DstCol: 0, Label: "containerOf",
		}}, nil

	case 7:
		// Add comment + hasCreator + replyOf.
		return &query.Plan{Root: &query.CreateRel{
			Input: &query.NodeLookup{
				Input: &query.CreateRel{
					Input: &query.NodeLookup{
						Input: &query.CreateNode{Label: "Comment", Props: []query.PropSpec{
							{Key: "id", Val: &query.Param{Name: "commentId"}},
							{Key: "content", Val: &query.Param{Name: "content"}},
							{Key: "creationDate", Val: &query.Param{Name: "creationDate"}},
							{Key: "browserUsed", Val: &query.Param{Name: "browserUsed"}},
							{Key: "length", Val: &query.Param{Name: "length"}},
						}},
						Label: "Person", Key: "id", Value: &query.Param{Name: "authorId"},
					},
					SrcCol: 0, DstCol: 1, Label: "hasCreator",
				},
				Label: "Post", Key: "id", Value: &query.Param{Name: "postId"},
			},
			SrcCol: 0, DstCol: 3, Label: "replyOf",
		}}, nil

	case 8:
		// Add friendship.
		return &query.Plan{Root: &query.CreateRel{
			Input: &query.NodeLookup{
				Input: access("Person", true, "person1Id"),
				Label: "Person", Key: "id", Value: &query.Param{Name: "person2Id"},
			},
			SrcCol: 0, DstCol: 1, Label: "knows",
			Props: []query.PropSpec{{Key: "creationDate", Val: &query.Param{Name: "creationDate"}}},
		}}, nil

	default:
		return nil, fmt.Errorf("ldbc: unknown IU query %d", q.Num)
	}
}

// ParamGen deterministically draws query parameters from the dataset's
// id pools (the "different input ID parameter" per run of §7.3).
type ParamGen struct {
	rng *rand.Rand
	ds  *Dataset

	nextPerson  int64
	nextForum   int64
	nextPost    int64
	nextComment int64
	nextDate    int64
}

// NewParamGen creates a parameter generator.
func NewParamGen(ds *Dataset, seed int64) *ParamGen {
	return &ParamGen{
		rng:         rand.New(rand.NewSource(seed)),
		ds:          ds,
		nextPerson:  int64(len(ds.PersonIDs)) + 1e6,
		nextForum:   int64(len(ds.ForumIDs)) + 1e6,
		nextPost:    int64(len(ds.PostIDs)) + 1e6,
		nextComment: int64(len(ds.CommentIDs)) + 1e6,
		nextDate:    20200000,
	}
}

func (pg *ParamGen) pick(ids []int64) int64 {
	return ids[pg.rng.Intn(len(ids))]
}

// Partition moves the generator's fresh-entity id counters into the
// i-th disjoint block, so any number of concurrent generators (one per
// simulated load client) insert non-colliding business ids. Call it
// once, right after NewParamGen.
func (pg *ParamGen) Partition(i int) {
	off := int64(i) << 32
	pg.nextPerson += off
	pg.nextForum += off
	pg.nextPost += off
	pg.nextComment += off
}

// SRParams draws the input parameter for an SR query.
func (pg *ParamGen) SRParams(q QueryID) query.Params {
	switch q.Num {
	case 1, 2, 3:
		return query.Params{"id": pg.pick(pg.ds.PersonIDs)}
	default:
		if q.Variant == "cmt" {
			return query.Params{"id": pg.pick(pg.ds.CommentIDs)}
		}
		return query.Params{"id": pg.pick(pg.ds.PostIDs)}
	}
}

// IUParams draws parameters for an IU query: fresh ids for inserted
// entities, existing ids for referenced ones.
func (pg *ParamGen) IUParams(q QueryID) query.Params {
	pg.nextDate++
	date := pg.nextDate
	switch q.Num {
	case 1:
		pg.nextPerson++
		return query.Params{
			"personId":  pg.nextPerson,
			"firstName": firstNames[pg.rng.Intn(len(firstNames))],
			"lastName":  lastNames[pg.rng.Intn(len(lastNames))],
			"gender":    "female", "birthday": int64(19800101),
			"creationDate": date,
			"locationIP":   "10.9.9.9", "browserUsed": "Firefox",
			"cityId": pg.pick(pg.ds.CityIDs), "tagId": pg.pick(pg.ds.TagIDs),
		}
	case 2:
		return query.Params{
			"personId": pg.pick(pg.ds.PersonIDs), "postId": pg.pick(pg.ds.PostIDs),
			"creationDate": date,
		}
	case 3:
		return query.Params{
			"personId": pg.pick(pg.ds.PersonIDs), "commentId": pg.pick(pg.ds.CommentIDs),
			"creationDate": date,
		}
	case 4:
		pg.nextForum++
		return query.Params{
			"forumId": pg.nextForum, "title": "new-forum",
			"creationDate": date, "moderatorId": pg.pick(pg.ds.PersonIDs),
		}
	case 5:
		return query.Params{
			"forumId": pg.pick(pg.ds.ForumIDs), "personId": pg.pick(pg.ds.PersonIDs),
			"joinDate": date,
		}
	case 6:
		pg.nextPost++
		return query.Params{
			"postId": pg.nextPost, "content": "fresh post content for iu6",
			"creationDate": date, "browserUsed": "Chrome", "length": int64(28),
			"authorId": pg.pick(pg.ds.PersonIDs), "forumId": pg.pick(pg.ds.ForumIDs),
		}
	case 7:
		pg.nextComment++
		return query.Params{
			"commentId": pg.nextComment, "content": "fresh comment for iu7",
			"creationDate": date, "browserUsed": "Safari", "length": int64(22),
			"authorId": pg.pick(pg.ds.PersonIDs), "postId": pg.pick(pg.ds.PostIDs),
		}
	case 8:
		p1 := pg.pick(pg.ds.PersonIDs)
		p2 := pg.pick(pg.ds.PersonIDs)
		return query.Params{"person1Id": p1, "person2Id": p2, "creationDate": date}
	default:
		return nil
	}
}
