(** Disjunctions of conjunctive counting queries, answered by
    inclusion–exclusion over the summary's primitive estimates. *)

open Edb_storage

val max_disjuncts : int
(** Hard cap (10) on the number of disjuncts: inclusion–exclusion is
    exponential in it. *)

val estimate : Summary.t -> Predicate.t list -> float
(** E[⟨π₁ ∨ … ∨ π_d, I⟩].  Raises [Invalid_argument] on an empty
    disjunction or more than {!max_disjuncts} disjuncts.  Unsatisfiable
    intersections are pruned with their supersets. *)

val probability : Summary.t -> Predicate.t list -> float
(** Pr[a model tuple satisfies the disjunction], clamped to [\[0, 1\]]. *)

val variance : Summary.t -> Predicate.t list -> float
(** n·p·(1−p) under the multinomial view. *)

val stddev : Summary.t -> Predicate.t list -> float
