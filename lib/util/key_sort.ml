(* A line-for-line copy of Stdlib.Array.sort (OCaml 5.1, array.ml) with
   [cmp x y] replaced by an int comparison of [x lsr shift] and
   [y lsr shift], the helpers lifted to the top level so no closure is
   built, and the [Bottom] exception replaced by a -1 return from
   [maxson]. Every comparison and every move is the stdlib's. *)

let[@inline] key x shift = x lsr shift

(* The largest of node [i]'s (up to three) sons, or -1 when it has none. *)
let maxson a shift l i =
  let i31 = i + i + i + 1 in
  if i31 + 2 < l then begin
    let x =
      if key (Array.unsafe_get a i31) shift < key (Array.unsafe_get a (i31 + 1)) shift then
        i31 + 1
      else i31
    in
    if key (Array.unsafe_get a x) shift < key (Array.unsafe_get a (i31 + 2)) shift then i31 + 2
    else x
  end
  else if
    i31 + 1 < l
    && key (Array.unsafe_get a i31) shift < key (Array.unsafe_get a (i31 + 1)) shift
  then i31 + 1
  else if i31 < l then i31
  else -1

let rec trickle a shift l i e =
  let j = maxson a shift l i in
  if j >= 0 && key (Array.unsafe_get a j) shift > key e shift then begin
    Array.unsafe_set a i (Array.unsafe_get a j);
    trickle a shift l j e
  end
  else Array.unsafe_set a i e

let rec bubble a shift l i =
  let j = maxson a shift l i in
  if j < 0 then i
  else begin
    Array.unsafe_set a i (Array.unsafe_get a j);
    bubble a shift l j
  end

let rec trickleup a shift i e =
  let father = (i - 1) / 3 in
  if key (Array.unsafe_get a father) shift < key e shift then begin
    Array.unsafe_set a i (Array.unsafe_get a father);
    if father > 0 then trickleup a shift father e else Array.unsafe_set a 0 e
  end
  else Array.unsafe_set a i e

let sort a ~len:l ~shift =
  if l < 0 || l > Array.length a then invalid_arg "Key_sort.sort: len";
  if shift < 0 || shift > 62 then invalid_arg "Key_sort.sort: shift";
  for i = ((l + 1) / 3) - 1 downto 0 do
    trickle a shift l i (Array.unsafe_get a i)
  done;
  for i = l - 1 downto 2 do
    let e = Array.unsafe_get a i in
    Array.unsafe_set a i (Array.unsafe_get a 0);
    trickleup a shift (bubble a shift i 0) e
  done;
  if l > 1 then begin
    let e = Array.unsafe_get a 1 in
    Array.unsafe_set a 1 (Array.unsafe_get a 0);
    Array.unsafe_set a 0 e
  end
